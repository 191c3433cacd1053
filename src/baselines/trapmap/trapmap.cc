#include "baselines/trapmap/trapmap.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "broadcast/frame.h"
#include "broadcast/params.h"
#include "common/bytes.h"
#include "common/check.h"
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

}  // namespace

int TrapMap::NewPoint(const Point& p) {
  points_.push_back(p);
  return static_cast<int>(points_.size()) - 1;
}

int TrapMap::NewTrap(const Trap& t) {
  traps_.push_back(t);
  const int id = static_cast<int>(traps_.size()) - 1;
  traps_[id].leaf = NewLeaf(id);
  return id;
}

int TrapMap::NewLeaf(int trap_id) {
  DagNode n;
  n.kind = DagNode::kLeaf;
  n.index = trap_id;
  dag_.push_back(n);
  return static_cast<int>(dag_.size()) - 1;
}

bool TrapMap::AboveForInsert(const Point& pt, int seg_id,
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

int TrapMap::LocateTarget(const Seg& s, const Point& w) const {
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

std::vector<int> TrapMap::FindCrossedTrapezoids(const Seg& s) const {
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

void TrapMap::InsertSegment(const Seg& s) {
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

Result<TrapMap> TrapMap::Build(const sub::Subdivision& sub,
                               const Options& options) {
  if (options.packet_capacity < static_cast<int>(kYNodeSize)) {
    return Status::InvalidArgument(
        "packet capacity cannot hold a trap-tree y-node");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }

  TrapMap map;
  map.options_ = options;

  // Bounding box: the service area inflated so every input vertex is
  // strictly interior.
  const geom::BBox& area = sub.service_area();
  const double mx = std::max(area.width(), area.height()) * 0.05;
  const geom::BBox box{area.min_x - mx, area.min_y - mx, area.max_x + mx,
                       area.max_y + mx};
  // Box top/bottom live in segs_ as trapezoid bounds but never as y-nodes.
  map.segs_.push_back(Seg{{box.min_x, box.max_y}, {box.max_x, box.max_y}});
  map.segs_.push_back(Seg{{box.min_x, box.min_y}, {box.max_x, box.min_y}});
  const int box_top = 0, box_bottom = 1;
  const int bl = map.NewPoint({box.min_x, box.min_y});
  const int tr = map.NewPoint({box.max_x, box.max_y});
  const int t0 =
      map.NewTrap(Trap{box_top, box_bottom, bl, tr, -1, -1, true});
  map.root_ = map.traps_[t0].leaf;

  // Collect each undirected subdivision edge once.
  std::vector<Seg> edges;
  std::unordered_set<uint64_t> seen;
  auto key = [](int a, int b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  };
  for (int r = 0; r < sub.NumRegions(); ++r) {
    const std::vector<int>& ring = sub.Ring(r);
    for (size_t i = 0; i < ring.size(); ++i) {
      const int a = ring[i];
      const int b = ring[(i + 1) % ring.size()];
      if (!seen.insert(key(a, b)).second) continue;
      Point pa = sub.vertices()[a];
      Point pb = sub.vertices()[b];
      if (pb.LexLess(pa)) std::swap(pa, pb);
      edges.push_back(Seg{pa, pb});
    }
  }
  // Randomized incremental order.
  Rng rng(options.seed);
  rng.Shuffle(&edges);
  for (const Seg& s : edges) map.InsertSegment(s);

  DTREE_RETURN_IF_ERROR(map.AssignRegions(sub));
  DTREE_RETURN_IF_ERROR(map.Page());
  return map;
}

namespace {

/// y of segment at x (vertical segments return their mid-y).
double EvalY(const geom::Point& p, const geom::Point& q, double x) {
  if (p.x == q.x) return (p.y + q.y) / 2.0;
  const double t = std::clamp((x - p.x) / (q.x - p.x), 0.0, 1.0);
  return p.y + t * (q.y - p.y);
}

}  // namespace

Status TrapMap::AssignRegions(const sub::Subdivision& sub) {
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

int TrapMap::LocateTrapezoid(const Point& p, std::vector<int>* visited) const {
  int node = root_;
  for (int guard = 0; guard < bcast::kProbeStepBudget; ++guard) {
    const DagNode& n = dag_[node];
    if (n.kind == DagNode::kLeaf) return n.index;
    if (visited != nullptr) visited->push_back(node);
    if (n.kind == DagNode::kXNode) {
      node = p.LexLess(points_[n.index]) ? n.left : n.right;
    } else {
      const Seg& t = segs_[n.index];
      const double v = geom::OrientValue(t.p, t.q, p);
      node = v > 0.0 ? n.left : n.right;
    }
  }
  // A cyclic DAG (construction bug) would loop forever; report instead of
  // crashing so Probe can surface a Status.
  return -1;
}

int TrapMap::Locate(const Point& p) const {
  const int trap = LocateTrapezoid(p, nullptr);
  return trap < 0 ? -1 : traps_[trap].region;
}

Status TrapMap::Page() {
  // Broadcast order: creation order (step, slot id) over internal DAG
  // nodes; leaves are not broadcast (they collapse into data pointers
  // inside their parents). A node always turns internal strictly before
  // its internal children do (see DagNode::step), so this order yields a
  // forward-only channel layout even though the structure is a DAG.
  node_bfs_pos_.assign(dag_.size(), -1);
  bfs_order_.clear();
  for (size_t id = 0; id < dag_.size(); ++id) {
    if (dag_[id].kind != DagNode::kLeaf) {
      bfs_order_.push_back(static_cast<int>(id));
    }
  }
  std::stable_sort(bfs_order_.begin(), bfs_order_.end(), [&](int a, int b) {
    if (dag_[a].step != dag_[b].step) return dag_[a].step < dag_[b].step;
    return a < b;
  });
  for (size_t pos = 0; pos < bfs_order_.size(); ++pos) {
    node_bfs_pos_[bfs_order_[pos]] = static_cast<int>(pos);
  }
  // First preceding parent (for packing) plus the full parent list (so the
  // pager's merging step never moves a shared node before any parent).
  bcast::PagingInput input;
  input.parent.assign(bfs_order_.size(), -1);
  input.all_parents.assign(bfs_order_.size(), {});
  for (size_t pos = 0; pos < bfs_order_.size(); ++pos) {
    const int id = bfs_order_[pos];
    for (int child : {dag_[id].left, dag_[id].right}) {
      if (child < 0 || dag_[child].kind == DagNode::kLeaf) continue;
      const int cpos = node_bfs_pos_[child];
      if (cpos <= static_cast<int>(pos)) {
        return Status::Internal(
            "trap-tree DAG edge points backwards in broadcast order");
      }
      if (input.parent[cpos] < 0) {
        input.parent[cpos] = static_cast<int>(pos);
      } else {
        input.all_parents[cpos].push_back(static_cast<int>(pos));
      }
    }
  }
  input.sizes.reserve(bfs_order_.size());
  input.is_leaf.reserve(bfs_order_.size());
  for (int id : bfs_order_) {
    input.sizes.push_back(dag_[id].kind == DagNode::kXNode ? kXNodeSize
                                                           : kYNodeSize);
    auto is_data = [&](int child) {
      return child < 0 || dag_[child].kind == DagNode::kLeaf;
    };
    input.is_leaf.push_back(is_data(dag_[id].left) &&
                            is_data(dag_[id].right));
  }
  if (input.sizes.empty()) {
    // Degenerate single-region map with no internal nodes.
    paging_ = bcast::PagingResult{};
    return Status::OK();
  }
  Result<bcast::PagingResult> r = bcast::TopDownPage(
      input, options_.packet_capacity, options_.merge_leaf_packets);
  if (!r.ok()) return r.status();
  paging_ = std::move(r).value();
  return Status::OK();
}

Result<bcast::PacketBuffer> TrapMap::SerializePackets() const {
  if (bfs_order_.empty()) {
    return Status::InvalidArgument(
        "degenerate trap-tree with no internal nodes cannot be serialized");
  }
  const int capacity = options_.packet_capacity;
  bcast::PacketBuffer packets(static_cast<size_t>(paging_.num_packets),
                              static_cast<size_t>(capacity));
  // A reader enters at (0, 0); creation order broadcasts the root
  // first, so this holds by construction.
  const bcast::NodeSpan& rs = paging_.spans[node_bfs_pos_[root_]];
  if (rs.first_packet != 0 || rs.offset != 0) {
    return Status::Internal("trap-tree root not at packet 0, offset 0");
  }
  auto encode_child = [&](ByteWriter* w, int child) -> Status {
    if (child < 0 || child >= static_cast<int>(dag_.size())) {
      return Status::Internal("DAG node with invalid children");
    }
    const DagNode& c = dag_[child];
    if (c.kind == DagNode::kLeaf) {
      const int region = traps_[c.index].region;
      if (region < 0) {
        return Status::Internal("reachable trapezoid without a region");
      }
      w->PutU32(bcast::EncodeDataPointer(region));
      return Status::OK();
    }
    const bcast::NodeSpan& cs = paging_.spans[node_bfs_pos_[child]];
    if (cs.offset > bcast::kOffsetMask) {
      return Status::InvalidArgument(
          "node offset exceeds the 12-bit pointer field");
    }
    if (cs.first_packet >= (1 << bcast::kPacketBits)) {
      return Status::InvalidArgument(
          "index packet exceeds the 19-bit pointer field");
    }
    w->PutU32(bcast::EncodeNodePointer(cs.first_packet, cs.offset));
    return Status::OK();
  };
  for (size_t bfs = 0; bfs < bfs_order_.size(); ++bfs) {
    const DagNode& n = dag_[bfs_order_[bfs]];
    const bcast::NodeSpan& s = paging_.spans[bfs];
    const bool is_y = n.kind == DagNode::kYNode;
    ByteWriter w;
    w.PutU16(static_cast<uint16_t>((is_y ? 0x8000u : 0u) | (bfs & 0x7fff)));
    DTREE_RETURN_IF_ERROR(encode_child(&w, n.left));
    DTREE_RETURN_IF_ERROR(encode_child(&w, n.right));
    if (is_y) {
      const Seg& t = segs_[n.index];
      w.PutF32(static_cast<float>(t.p.x));
      w.PutF32(static_cast<float>(t.p.y));
      w.PutF32(static_cast<float>(t.q.x));
      w.PutF32(static_cast<float>(t.q.y));
    } else {
      w.PutF32(static_cast<float>(points_[n.index].x));
    }
    if (w.size() != (is_y ? kYNodeSize : kXNodeSize)) {
      return Status::Internal("serialized size " + std::to_string(w.size()) +
                              " != accounted size " +
                              std::to_string(is_y ? kYNodeSize : kXNodeSize));
    }
    packets.Write(static_cast<size_t>(s.first_packet), s.offset,
                  w.bytes().data(), w.size());
  }
  return packets;
}

Status TrapMap::ProbeInto(const Point& p, bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  // The descent logs the visited DAG nodes into the packet list; each is
  // then overwritten in place by its packet, consecutive repeats dropped.
  std::vector<int>& log = trace->packets;
  const int trap = LocateTrapezoid(p, &log);
  if (trap < 0) {
    return Status::Internal("trap-tree descent exceeded the probe budget");
  }
  size_t kept = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    const int pos = node_bfs_pos_[log[i]];
    DTREE_CHECK(pos >= 0);
    const bcast::NodeSpan& span = paging_.spans[pos];
    DTREE_CHECK(span.num_packets == 1);
    if (kept == 0 || log[kept - 1] != span.first_packet) {
      log[kept++] = span.first_packet;
    }
  }
  log.resize(kept);
  trace->region = traps_[trap].region;
  return Status::OK();
}

int TrapMap::num_dag_nodes() const {
  int n = 0;
  for (const DagNode& d : dag_) {
    if (d.kind != DagNode::kLeaf) ++n;
  }
  return n;
}

int TrapMap::num_alive_trapezoids() const {
  int n = 0;
  for (const Trap& t : traps_) n += t.alive ? 1 : 0;
  return n;
}

Status TrapMap::CheckInvariants(int sample_points, uint64_t seed) const {
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
    const int id = LocateTrapezoid(p, nullptr);
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

}  // namespace dtree::baselines
