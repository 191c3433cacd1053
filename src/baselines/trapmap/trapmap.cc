#include "baselines/trapmap/trapmap.h"

#include <algorithm>
#include <cmath>

#include "broadcast/frame.h"
#include "broadcast/pager.h"
#include "broadcast/params.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "geom/predicates.h"

namespace dtree::baselines {

namespace {

using geom::Point;

/// Orientation tolerance: the subdivision is stitched to geom::kMergeEps,
/// so genuinely off-line points produce values far above this.
constexpr double kOrientTol = 1e-6;

/// x-node: bid + two pointers + one coordinate (Table 2, header 0).
constexpr size_t kXNodeSize =
    bcast::kBidSize + 2 * bcast::kPointerSize + bcast::kCoordinateSize;
/// y-node: bid + two pointers + one segment (4 coordinates).
constexpr size_t kYNodeSize =
    bcast::kBidSize + 2 * bcast::kPointerSize + 4 * bcast::kCoordinateSize;

bool LexLE(const Point& a, const Point& b) {
  return a.LexLess(b) || (a.x == b.x && a.y == b.y);
}

/// y of segment at x (vertical segments return their mid-y).
double EvalY(const geom::Point& p, const geom::Point& q, double x) {
  if (p.x == q.x) return (p.y + q.y) / 2.0;
  const double t = std::clamp((x - p.x) / (q.x - p.x), 0.0, 1.0);
  return p.y + t * (q.y - p.y);
}

/// The randomized incremental construction: segments, trapezoids and the
/// search DAG whose leaves are trapezoids. Build-only; TrapMap keeps its
/// internal nodes as a flat layout.
class Dag {
 public:
  struct Seg {
    geom::Point p, q;  ///< p lex< q
  };
  struct Trap {
    int top = -1;     ///< segment bounding above
    int bottom = -1;  ///< segment bounding below
    int leftp = -1;   ///< point id bounding the slab on the left
    int rightp = -1;  ///< point id bounding the slab on the right
    int leaf = -1;    ///< DAG leaf node id
    int region = -1;  ///< data region label (assigned after construction)
    bool alive = true;
  };
  struct DagNode {
    enum Kind : uint8_t { kXNode, kYNode, kLeaf };
    Kind kind = kLeaf;
    int index = -1;  ///< point id / segment id / trapezoid id
    int left = -1;   ///< x: lex-less side; y: above side
    int right = -1;  ///< x: lex-greater-or-equal side; y: below side
    /// Insertion step at which this slot became an internal node. Parents
    /// always turn internal strictly before (or, within one step, at a
    /// smaller slot id than) their internal children, so broadcasting in
    /// (step, id) order yields a forward-only channel layout.
    int step = 0;
  };

  /// Inserts every subdivision edge in the seeded random order, then
  /// labels each alive trapezoid with its region.
  static Result<Dag> Construct(const sub::Subdivision& sub,
                               const TrapMap::Options& options);

  /// TrapMap::CheckInvariants' checks.
  Status Check(int sample_points, uint64_t seed) const;

  /// Broadcast order (position -> node id) over the internal nodes, each
  /// node's position (-1 for leaves), and the pager's spans by position.
  Status Page(const TrapMap::Options& options, std::vector<int>* order,
              std::vector<int>* pos, bcast::PagingResult* paging) const;

  std::vector<geom::Point> points_;
  std::vector<Seg> segs_;
  std::vector<Trap> traps_;
  std::vector<DagNode> dag_;
  int root_ = -1;

 private:
  int NewPoint(const geom::Point& p);
  int NewTrap(const Trap& t);
  int NewLeaf(int trap_id);

  /// True when `pt` is strictly above segment s (lexicographic shear
  /// applied for on-line ties via `s_hint`, the segment being inserted).
  bool AboveForInsert(const geom::Point& pt, int seg_id,
                      const Seg& s_hint) const;

  /// DAG descent for the point on `s` infinitesimally lex-right of `w`.
  int LocateTarget(const Seg& s, const geom::Point& w) const;

  /// All trapezoids crossed by s, left to right.
  std::vector<int> FindCrossedTrapezoids(const Seg& s) const;

  void InsertSegment(const Seg& s);

  /// The leaf trapezoid p descends to; -1 when the descent takes more
  /// steps than the DAG has nodes (a cycle).
  int LocateTrapezoid(const geom::Point& p) const;

  Status AssignRegions(const sub::Subdivision& sub);
};

}  // namespace

int Dag::NewPoint(const Point& p) {
  points_.push_back(p);
  return static_cast<int>(points_.size()) - 1;
}

int Dag::NewTrap(const Trap& t) {
  traps_.push_back(t);
  const int id = static_cast<int>(traps_.size()) - 1;
  traps_[id].leaf = NewLeaf(id);
  return id;
}

int Dag::NewLeaf(int trap_id) {
  DagNode n;
  n.kind = DagNode::kLeaf;
  n.index = trap_id;
  dag_.push_back(n);
  return static_cast<int>(dag_.size()) - 1;
}

bool Dag::AboveForInsert(const Point& pt, int seg_id,
                         const Seg& s_hint) const {
  const Seg& t = segs_[seg_id];
  const double v = geom::OrientValue(t.p, t.q, pt);
  if (std::abs(v) > kOrientTol) return v > 0.0;
  // pt lies on t's line (a shared endpoint): break the tie by where the
  // inserted segment heads, i.e. the side of its right endpoint.
  const double u = geom::OrientValue(t.p, t.q, s_hint.q);
  if (std::abs(u) > kOrientTol) return u > 0.0;
  const double w = geom::OrientValue(t.p, t.q, s_hint.p);
  return w > 0.0;
}

int Dag::LocateTarget(const Seg& s, const Point& w) const {
  // Target: the point of s infinitesimally lex-after w (the symbolic
  // shear's reading of "just right of the vertical line through w").
  int node = root_;
  for (int guard = 0; guard < (1 << 22); ++guard) {
    const DagNode& n = dag_[node];
    switch (n.kind) {
      case DagNode::kLeaf:
        return n.index;
      case DagNode::kXNode: {
        const Point& v = points_[n.index];
        node = LexLE(v, w) ? n.right : n.left;
        break;
      }
      case DagNode::kYNode: {
        // Where s sits at lex position w (limit of the shear).
        Point ps;
        if (s.p.x == s.q.x) {
          ps = {s.p.x, std::clamp(w.y, std::min(s.p.y, s.q.y),
                                  std::max(s.p.y, s.q.y))};
        } else {
          const double u =
              std::clamp((w.x - s.p.x) / (s.q.x - s.p.x), 0.0, 1.0);
          ps = {s.p.x + u * (s.q.x - s.p.x), s.p.y + u * (s.q.y - s.p.y)};
        }
        const Seg& t = segs_[n.index];
        double v = geom::OrientValue(t.p, t.q, ps);
        if (std::abs(v) <= kOrientTol) {
          // On the line (shared endpoint): decide by where s heads.
          v = geom::OrientValue(t.p, t.q, s.q);
          if (std::abs(v) <= kOrientTol) {
            v = geom::OrientValue(t.p, t.q, s.p);
          }
        }
        node = v > 0.0 ? n.left : n.right;
        break;
      }
    }
  }
  DTREE_CHECK(false && "trap-map locate did not terminate");
  return -1;
}

std::vector<int> Dag::FindCrossedTrapezoids(const Seg& s) const {
  std::vector<int> out;
  int cur = LocateTarget(s, s.p);
  out.push_back(cur);
  while (points_[traps_[cur].rightp].LexLess(s.q)) {
    const int next = LocateTarget(s, points_[traps_[cur].rightp]);
    DTREE_CHECK(next != cur);
    out.push_back(next);
    cur = next;
  }
  return out;
}

void Dag::InsertSegment(const Seg& s) {
  const std::vector<int> crossed = FindCrossedTrapezoids(s);
  const int sid = static_cast<int>(segs_.size());
  segs_.push_back(s);
  const int pid_p = NewPoint(s.p);
  const int pid_q = NewPoint(s.q);

  const Trap first = traps_[crossed.front()];
  const Trap last = traps_[crossed.back()];
  const bool has_left = !(points_[first.leftp].x == s.p.x &&
                          points_[first.leftp].y == s.p.y);
  const bool has_right = !(points_[last.rightp].x == s.q.x &&
                           points_[last.rightp].y == s.q.y);

  int cap_left = -1, cap_right = -1;
  if (has_left) {
    cap_left = NewTrap(
        Trap{first.top, first.bottom, first.leftp, pid_p, -1, -1, true});
  }
  if (has_right) {
    cap_right = NewTrap(
        Trap{last.top, last.bottom, pid_q, last.rightp, -1, -1, true});
  }

  // Above/below chains with merging: a chain trapezoid closes at an old
  // slab boundary only when the boundary vertex lies on its side of s.
  const int k = static_cast<int>(crossed.size());
  std::vector<int> above(k), below(k);
  int cur_above =
      NewTrap(Trap{first.top, sid, pid_p, -1, -1, -1, true});
  int cur_below =
      NewTrap(Trap{sid, first.bottom, pid_p, -1, -1, -1, true});
  above[0] = cur_above;
  below[0] = cur_below;
  for (int i = 1; i < k; ++i) {
    const Trap& prev = traps_[crossed[i - 1]];
    const Trap& cur = traps_[crossed[i]];
    const int rp = prev.rightp;
    if (AboveForInsert(points_[rp], sid, s)) {
      // Vertex above s: the wall persists above, the region below merges.
      traps_[cur_above].rightp = rp;
      cur_above = NewTrap(Trap{cur.top, sid, rp, -1, -1, -1, true});
    } else {
      traps_[cur_below].rightp = rp;
      cur_below = NewTrap(Trap{sid, cur.bottom, rp, -1, -1, -1, true});
    }
    above[i] = cur_above;
    below[i] = cur_below;
  }
  const int right_end = has_right ? pid_q : last.rightp;
  traps_[cur_above].rightp = right_end;
  traps_[cur_below].rightp = right_end;

  // DAG surgery: overwrite each crossed trapezoid's leaf in place with its
  // replacement subtree; new leaves are shared across subtrees where
  // chain trapezoids merged.
  auto new_node = [&](DagNode n) {
    n.step = sid;
    dag_.push_back(n);
    return static_cast<int>(dag_.size()) - 1;
  };
  for (int i = 0; i < k; ++i) {
    const int old_leaf = traps_[crossed[i]].leaf;
    traps_[crossed[i]].alive = false;

    DagNode ynode;
    ynode.kind = DagNode::kYNode;
    ynode.index = sid;
    ynode.step = sid;
    ynode.left = traps_[above[i]].leaf;
    ynode.right = traps_[below[i]].leaf;

    DagNode root_content = ynode;
    if (i == 0 && has_left) {
      DagNode xp;
      xp.step = sid;
      xp.kind = DagNode::kXNode;
      xp.index = pid_p;
      xp.left = traps_[cap_left].leaf;
      root_content = xp;
      if (i == k - 1 && has_right) {
        // Single crossed trapezoid with both caps: x(p){A, x(q){y, E}}.
        // Allocate x(q) before the y-node so the broadcast (creation)
        // order places it first — pointers must only go forward.
        DagNode xq;
        xq.step = sid;
        xq.kind = DagNode::kXNode;
        xq.index = pid_q;
        xq.right = traps_[cap_right].leaf;
        const int xq_id = new_node(xq);
        const int y_id = new_node(ynode);
        dag_[xq_id].left = y_id;
        root_content.right = xq_id;
      } else {
        const int y_id = new_node(ynode);
        root_content.right = y_id;
      }
    } else if (i == k - 1 && has_right) {
      const int y_id = new_node(ynode);
      DagNode xq;
      xq.step = sid;
      xq.kind = DagNode::kXNode;
      xq.index = pid_q;
      xq.left = y_id;
      xq.right = traps_[cap_right].leaf;
      root_content = xq;
    }
    dag_[old_leaf] = root_content;
  }
}

Result<Dag> Dag::Construct(const sub::Subdivision& sub,
                           const TrapMap::Options& options) {
  if (options.packet_capacity < static_cast<int>(kYNodeSize)) {
    return Status::InvalidArgument(
        "packet capacity cannot hold a trap-tree y-node");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }

  Dag dag;

  // Bounding box: the service area inflated so every input vertex is
  // strictly interior.
  const geom::BBox& area = sub.service_area();
  const double mx = std::max(area.width(), area.height()) * 0.05;
  const geom::BBox box{area.min_x - mx, area.min_y - mx, area.max_x + mx,
                       area.max_y + mx};
  // Box top/bottom live in segs_ as trapezoid bounds but never as y-nodes.
  dag.segs_.push_back(Seg{{box.min_x, box.max_y}, {box.max_x, box.max_y}});
  dag.segs_.push_back(Seg{{box.min_x, box.min_y}, {box.max_x, box.min_y}});
  const int box_top = 0, box_bottom = 1;
  const int bl = dag.NewPoint({box.min_x, box.min_y});
  const int tr = dag.NewPoint({box.max_x, box.max_y});
  const int t0 =
      dag.NewTrap(Trap{box_top, box_bottom, bl, tr, -1, -1, true});
  dag.root_ = dag.traps_[t0].leaf;

  // Each undirected subdivision edge once, in the order a walk over the
  // rings first meets it.
  std::vector<sub::Subdivision::Segment> segments = sub.Segments();
  std::sort(segments.begin(), segments.end(), [](const auto& a, const auto& b) {
    return a.first_slot < b.first_slot;
  });
  std::vector<Seg> edges;
  for (const sub::Subdivision::Segment& s : segments) {
    Point pa = sub.vertices()[s.lo];
    Point pb = sub.vertices()[s.hi];
    if (pb.LexLess(pa)) std::swap(pa, pb);
    edges.push_back(Seg{pa, pb});
  }
  // Randomized incremental order.
  Rng rng(options.seed);
  rng.Shuffle(&edges);
  for (const Seg& s : edges) dag.InsertSegment(s);

  DTREE_RETURN_IF_ERROR(dag.AssignRegions(sub));
  return dag;
}

Status Dag::AssignRegions(const sub::Subdivision& sub) {
  const sub::PointLocator oracle(sub);
  for (Trap& t : traps_) {
    if (!t.alive) continue;
    const Point& lp = points_[t.leftp];
    const Point& rp = points_[t.rightp];
    const double xm = (lp.x + rp.x) / 2.0;
    const Seg& top = segs_[t.top];
    const Seg& bottom = segs_[t.bottom];
    const double ym =
        (EvalY(top.p, top.q, xm) + EvalY(bottom.p, bottom.q, xm)) / 2.0;
    t.region = oracle.Locate({xm, ym});
    if (t.region < 0) {
      return Status::Internal("trapezoid label resolution failed");
    }
  }
  return Status::OK();
}

int Dag::LocateTrapezoid(const Point& p) const {
  int node = root_;
  for (size_t guard = 0; guard < dag_.size(); ++guard) {
    const DagNode& n = dag_[node];
    if (n.kind == DagNode::kLeaf) return n.index;
    if (n.kind == DagNode::kXNode) {
      node = p.LexLess(points_[n.index]) ? n.left : n.right;
    } else {
      const Seg& t = segs_[n.index];
      const double v = geom::OrientValue(t.p, t.q, p);
      node = v > 0.0 ? n.left : n.right;
    }
  }
  return -1;
}

Status Dag::Page(const TrapMap::Options& options, std::vector<int>* order,
                 std::vector<int>* pos, bcast::PagingResult* paging) const {
  // Broadcast order: creation order (step, slot id) over internal DAG
  // nodes; leaves are not broadcast (they collapse into data pointers
  // inside their parents). A node always turns internal strictly before
  // its internal children do (see DagNode::step), so this order yields a
  // forward-only channel layout even though the structure is a DAG.
  pos->assign(dag_.size(), -1);
  order->clear();
  for (size_t id = 0; id < dag_.size(); ++id) {
    if (dag_[id].kind != DagNode::kLeaf) {
      order->push_back(static_cast<int>(id));
    }
  }
  if (order->empty()) {
    return Status::Internal("trap-tree DAG has no internal nodes");
  }
  std::stable_sort(order->begin(), order->end(), [&](int a, int b) {
    if (dag_[a].step != dag_[b].step) return dag_[a].step < dag_[b].step;
    return a < b;
  });
  for (size_t i = 0; i < order->size(); ++i) {
    (*pos)[(*order)[i]] = static_cast<int>(i);
  }
  // First preceding parent (for packing) plus the full parent list (so the
  // pager's merging step never moves a shared node before any parent).
  bcast::PagingInput input;
  input.parent.assign(order->size(), -1);
  input.all_parents.assign(order->size(), {});
  for (size_t i = 0; i < order->size(); ++i) {
    const int id = (*order)[i];
    for (int child : {dag_[id].left, dag_[id].right}) {
      if (child < 0 || dag_[child].kind == DagNode::kLeaf) continue;
      const int cpos = (*pos)[child];
      if (cpos <= static_cast<int>(i)) {
        return Status::Internal(
            "trap-tree DAG edge points backwards in broadcast order");
      }
      if (input.parent[cpos] < 0) {
        input.parent[cpos] = static_cast<int>(i);
      } else {
        input.all_parents[cpos].push_back(static_cast<int>(i));
      }
    }
  }
  input.sizes.reserve(order->size());
  input.is_leaf.reserve(order->size());
  for (int id : *order) {
    input.sizes.push_back(dag_[id].kind == DagNode::kXNode ? kXNodeSize
                                                           : kYNodeSize);
    auto is_data = [&](int child) {
      return child < 0 || dag_[child].kind == DagNode::kLeaf;
    };
    input.is_leaf.push_back(is_data(dag_[id].left) &&
                            is_data(dag_[id].right));
  }
  Result<bcast::PagingResult> r = bcast::TopDownPage(
      input, options.packet_capacity, /*merge_leaf_packets=*/true);
  if (!r.ok()) return r.status();
  *paging = std::move(r).value();
  return Status::OK();
}

Status Dag::Check(int sample_points, uint64_t seed) const {
  for (const DagNode& d : dag_) {
    if (d.kind == DagNode::kLeaf) continue;
    if (d.left < 0 || d.right < 0 ||
        d.left >= static_cast<int>(dag_.size()) ||
        d.right >= static_cast<int>(dag_.size())) {
      return Status::Internal("DAG node with invalid children");
    }
  }
  // Reachability: every alive trapezoid's leaf is reachable from the root.
  std::vector<bool> reach(dag_.size(), false);
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (reach[id]) continue;
    reach[id] = true;
    if (dag_[id].kind != DagNode::kLeaf) {
      stack.push_back(dag_[id].left);
      stack.push_back(dag_[id].right);
    }
  }
  for (const Trap& t : traps_) {
    if (t.alive && !reach[t.leaf]) {
      return Status::Internal("alive trapezoid unreachable from DAG root");
    }
    if (!t.alive && reach[t.leaf] && dag_[t.leaf].kind == DagNode::kLeaf) {
      return Status::Internal("dead trapezoid still reachable");
    }
  }
  // Geometric containment of random probes.
  Rng rng(seed);
  const Point& bl = points_[0];
  const Point& tr = points_[1];
  for (int i = 0; i < sample_points; ++i) {
    const Point p{rng.Uniform(bl.x, tr.x), rng.Uniform(bl.y, tr.y)};
    const int id = LocateTrapezoid(p);
    if (id < 0) return Status::Internal("trap-map query did not terminate");
    const Trap& t = traps_[id];
    if (!t.alive) return Status::Internal("query reached a dead trapezoid");
    const double slack = 1e-6;
    if (p.x < points_[t.leftp].x - slack ||
        p.x > points_[t.rightp].x + slack) {
      return Status::Internal("query point outside its trapezoid's slab");
    }
    const Seg& top = segs_[t.top];
    const Seg& bottom = segs_[t.bottom];
    if (geom::OrientValue(top.p, top.q, p) > kOrientTol) {
      return Status::Internal("query point above its trapezoid's top");
    }
    if (geom::OrientValue(bottom.p, bottom.q, p) < -kOrientTol) {
      return Status::Internal("query point below its trapezoid's bottom");
    }
  }
  return Status::OK();
}

Result<TrapMap> TrapMap::Build(const sub::Subdivision& sub,
                               const Options& options) {
  Result<Dag> dag_r = Dag::Construct(sub, options);
  if (!dag_r.ok()) return dag_r.status();
  const Dag& dag = dag_r.value();
  std::vector<int> order, pos;
  bcast::PagingResult paging;
  DTREE_RETURN_IF_ERROR(dag.Page(options, &order, &pos, &paging));

  TrapMap map;
  map.options_ = options;
  map.num_packets_ = paging.num_packets;
  map.index_bytes_ = paging.used_bytes;
  map.num_segments_ = static_cast<int>(dag.segs_.size());
  for (const Dag::Trap& t : dag.traps_) map.num_alive_trapezoids_ += t.alive;

  // The layout: internal node i at broadcast position i, with the DAG's
  // exact doubles; a leaf child becomes its trapezoid's data pointer.
  TrapMapArena& layout = map.layout_;
  layout.budget_ = static_cast<int>(order.size());
  layout.nodes_.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const Dag::DagNode& d = dag.dag_[order[i]];
    TrapMapArena::Node n;
    n.is_y = d.kind == Dag::DagNode::kYNode;
    if (n.is_y) {
      const Dag::Seg& t = dag.segs_[d.index];
      n.a[0] = t.p.x;
      n.a[1] = t.p.y;
      n.a[2] = t.q.x;
      n.a[3] = t.q.y;
    } else {
      n.a[0] = dag.points_[d.index].x;
      n.a[1] = dag.points_[d.index].y;
    }
    for (const auto& [child, link] : {std::pair{d.left, &n.left},
                                      std::pair{d.right, &n.right}}) {
      const Dag::DagNode& c = dag.dag_[child];
      if (c.kind != Dag::DagNode::kLeaf) {
        *link = static_cast<uint32_t>(pos[child]);
        continue;
      }
      const int region = dag.traps_[c.index].region;
      if (region < 0) {
        return Status::Internal("reachable trapezoid without a region");
      }
      *link = bcast::EncodeDataPointer(region);
    }
    n.packet = paging.spans[i].first_packet;
    n.offset = static_cast<uint32_t>(paging.spans[i].offset);
    layout.nodes_.push_back(n);
  }
  return map;
}

Status TrapMap::CheckInvariants(const sub::Subdivision& sub,
                                const Options& options, int sample_points,
                                uint64_t seed) {
  Result<Dag> dag = Dag::Construct(sub, options);
  if (!dag.ok()) return dag.status();
  return dag.value().Check(sample_points, seed);
}

Result<bcast::PacketBuffer> TrapMap::SerializePackets() const {
  const std::vector<TrapMapArena::Node>& nodes = layout_.nodes_;
  bcast::PacketBuffer packets(static_cast<size_t>(num_packets_),
                              static_cast<size_t>(options_.packet_capacity));
  // A reader enters at (0, 0); creation order broadcasts the root
  // first, so this holds by construction.
  if (nodes[0].packet != 0 || nodes[0].offset != 0) {
    return Status::Internal("trap-tree root not at packet 0, offset 0");
  }
  for (size_t pos = 0; pos < nodes.size(); ++pos) {
    const TrapMapArena::Node& n = nodes[pos];
    ByteWriter w;
    w.PutU16(static_cast<uint16_t>((n.is_y ? 0x8000u : 0u) | (pos & 0x7fff)));
    for (const uint32_t child : {n.left, n.right}) {
      if (bcast::IsDataPointer(child)) {
        w.PutU32(child);
        continue;
      }
      Result<uint32_t> ptr =
          bcast::EncodeNodePointer(nodes[child].packet, nodes[child].offset);
      if (!ptr.ok()) return ptr.status();
      w.PutU32(ptr.value());
    }
    for (int k = 0; k < (n.is_y ? 4 : 1); ++k) {
      w.PutF32(static_cast<float>(n.a[k]));
    }
    DTREE_RETURN_IF_ERROR(
        packets.WriteNode(static_cast<size_t>(n.packet), n.offset, w.bytes(),
                          n.is_y ? kYNodeSize : kXNodeSize));
  }
  return packets;
}

}  // namespace dtree::baselines
