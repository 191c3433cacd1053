#include "baselines/kirkpatrick/kirkpatrick.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "broadcast/frame.h"
#include "broadcast/pager.h"
#include "broadcast/params.h"
#include "common/bytes.h"
#include "common/check.h"
#include "geom/predicates.h"
#include "subdivision/extent.h"
#include "subdivision/triangulate.h"

namespace dtree::baselines {

namespace {

using geom::Point;
using geom::Triangle;

/// Coarsening stops once the top level has at most this many triangles
/// (the paper's example uses 5).
constexpr int kTMin = 5;
/// Maximum degree of a removable vertex (Kirkpatrick's constant).
constexpr int kMaxDegree = 8;

uint64_t PointKey(const Point& p) {
  uint64_t xb, yb;
  std::memcpy(&xb, &p.x, sizeof(xb));
  std::memcpy(&yb, &p.y, sizeof(yb));
  return xb * 0x9e3779b97f4a7c15ULL ^ yb;
}

/// Serialized node size: bid + triangle + one 4 B pointer per child (base
/// triangles carry a single data pointer). Header is 0 per Table 2.
size_t NodeSize(size_t num_children) {
  return bcast::kBidSize + 6 * bcast::kCoordinateSize +
         std::max<size_t>(1, num_children) * bcast::kPointerSize;
}

/// Mesh bookkeeping during hierarchy construction.
struct Mesh {
  std::unordered_map<uint64_t, int> vid;  ///< coordinate bits -> vertex id
  std::vector<Point> coords;
  std::vector<std::vector<int>> incident;  ///< vertex -> active triangles
  std::vector<bool> corner;                ///< unremovable (box corners)

  int Intern(const Point& p) {
    const uint64_t key = PointKey(p);
    auto it = vid.find(key);
    if (it != vid.end()) return it->second;
    const int id = static_cast<int>(coords.size());
    vid.emplace(key, id);
    coords.push_back(p);
    incident.emplace_back();
    corner.push_back(false);
    return id;
  }
};

/// One triangle of the hierarchy under construction.
struct TriNode {
  geom::Triangle tri;
  int region = -1;             ///< base triangles: data region
  std::vector<int> children;   ///< finer triangles this one overlaps
  int level = 0;               ///< 0 = base triangulation
};

/// Top-down broadcast order: coarsest level first. Every DAG edge goes
/// from a higher level to a strictly lower one, so level-descending order
/// guarantees the client only ever jumps forward on the channel — a
/// breadth-first order from the roots would not (shared children can
/// precede a later parent). Fills `order` (position -> triangle id) and
/// `pos`, sorts `roots` and every child list by position so the probe
/// never rewinds (a node's children may span several levels), and pages
/// the nodes greedily in that order.
Result<bcast::PagingResult> PageLevelsDescending(
    int capacity, std::vector<TriNode>* tris, std::vector<int>* roots,
    std::vector<int>* order, std::vector<int>* pos) {
  order->resize(tris->size());
  std::iota(order->begin(), order->end(), 0);
  std::stable_sort(order->begin(), order->end(), [&](int a, int b) {
    return (*tris)[a].level > (*tris)[b].level;
  });
  pos->assign(tris->size(), -1);
  for (size_t i = 0; i < order->size(); ++i) {
    (*pos)[(*order)[i]] = static_cast<int>(i);
  }
  const auto by_pos = [&](int a, int b) { return (*pos)[a] < (*pos)[b]; };
  std::stable_sort(roots->begin(), roots->end(), by_pos);
  for (TriNode& node : *tris) {
    std::stable_sort(node.children.begin(), node.children.end(), by_pos);
  }
  std::vector<size_t> sizes;
  sizes.reserve(order->size());
  for (int id : *order) sizes.push_back(NodeSize((*tris)[id].children.size()));
  return bcast::GreedyPage(sizes, capacity);
}

}  // namespace

Result<TrianTree> TrianTree::Build(const sub::Subdivision& sub,
                                   const Options& options) {
  if (options.packet_capacity < static_cast<int>(NodeSize(kMaxDegree))) {
    return Status::InvalidArgument(
        "packet capacity cannot hold a trian-tree node");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }

  TrianTree tree;
  tree.options_ = options;
  std::vector<TriNode> tris;
  std::vector<int> roots;  // surviving top-level triangles

  // ---- 1. Base triangulation: regions + bounding-rectangle annulus. ----
  std::vector<std::pair<Triangle, int>> base;  // triangle, region
  for (int r = 0; r < sub.NumRegions(); ++r) {
    std::vector<Point> ring;
    for (int v : sub.Ring(r)) ring.push_back(sub.vertices()[v]);
    std::vector<Triangle> tris;
    DTREE_RETURN_IF_ERROR(sub::EarClipTriangulate(ring, &tris));
    for (const Triangle& t : tris) base.emplace_back(t, r);
  }
  {
    std::vector<int> all(sub.NumRegions());
    for (int i = 0; i < sub.NumRegions(); ++i) all[i] = i;
    Result<std::vector<geom::Polyline>> boundary_r =
        sub::ComputeExtent(sub, all);
    if (!boundary_r.ok()) return boundary_r.status();
    if (boundary_r.value().size() != 1) {
      return Status::Internal("subdivision boundary is not a single loop");
    }
    const geom::BBox& area = sub.service_area();
    const double mx = std::max(area.width(), area.height()) * 0.1;
    const geom::BBox outer{area.min_x - mx, area.min_y - mx,
                           area.max_x + mx, area.max_y + mx};
    std::vector<Triangle> gap;
    DTREE_RETURN_IF_ERROR(sub::TriangulateRectAnnulus(
        outer, area, boundary_r.value()[0].pts, &gap));
    for (const Triangle& t : gap) base.emplace_back(t, -1);
  }

  // ---- 2. Mesh + coarsening hierarchy. ----
  Mesh mesh;
  std::vector<std::array<int, 3>> tri_verts;
  auto add_triangle = [&](const Triangle& t, int region, int level) {
    TriNode node;
    node.tri = t;
    node.region = region;
    node.level = level;
    const int id = static_cast<int>(tris.size());
    tris.push_back(std::move(node));
    std::array<int, 3> vs;
    for (int i = 0; i < 3; ++i) {
      vs[i] = mesh.Intern(t.v[i]);
      mesh.incident[vs[i]].push_back(id);
    }
    tri_verts.push_back(vs);
    return id;
  };

  std::vector<bool> active;
  int active_count = 0;
  for (const auto& [t, region] : base) {
    Triangle ccw = t;
    ccw.EnsureCCW();
    if (ccw.Area() <= 0.0) {
      return Status::Internal("degenerate base triangle");
    }
    add_triangle(ccw, region, 0);
    ++active_count;
  }
  active.assign(tris.size(), true);
  // Box corners are unremovable.
  {
    const geom::BBox& area = sub.service_area();
    const double mx = std::max(area.width(), area.height()) * 0.1;
    for (const Point& c :
         {Point{area.min_x - mx, area.min_y - mx},
          Point{area.max_x + mx, area.min_y - mx},
          Point{area.max_x + mx, area.max_y + mx},
          Point{area.min_x - mx, area.max_y + mx}}) {
      auto it = mesh.vid.find(PointKey(c));
      if (it == mesh.vid.end()) {
        return Status::Internal("bounding-box corner missing from mesh");
      }
      mesh.corner[it->second] = true;
    }
  }

  auto active_incident = [&](int v) {
    std::vector<int>& inc = mesh.incident[v];
    inc.erase(std::remove_if(inc.begin(), inc.end(),
                             [&](int t) { return !active[t]; }),
              inc.end());
    return inc;
  };

  int level = 0;
  while (active_count > kTMin) {
    ++level;
    // Greedy independent set of removable low-degree vertices. Visiting
    // vertices in ascending degree yields larger sets (and smaller star
    // holes), which keeps the hierarchy shallow.
    std::vector<std::pair<int, int>> eligible;  // (degree, vertex)
    for (size_t v = 0; v < mesh.coords.size(); ++v) {
      if (mesh.corner[v]) continue;
      const std::vector<int>& inc = active_incident(static_cast<int>(v));
      if (inc.empty() || static_cast<int>(inc.size()) > kMaxDegree) {
        continue;
      }
      eligible.emplace_back(static_cast<int>(inc.size()),
                            static_cast<int>(v));
    }
    std::sort(eligible.begin(), eligible.end());
    std::vector<int> chosen;
    std::vector<bool> blocked(mesh.coords.size(), false);
    for (const auto& [deg, v] : eligible) {
      if (blocked[v]) continue;
      chosen.push_back(v);
      for (int t : mesh.incident[v]) {
        for (int u : tri_verts[t]) blocked[u] = true;
      }
    }
    if (chosen.empty()) break;

    for (int v : chosen) {
      const std::vector<int> star = active_incident(v);
      if (static_cast<int>(star.size()) > kMaxDegree || star.empty()) {
        continue;  // degree changed due to earlier removals this round
      }
      // Link polygon: chain the edges opposite v, oriented CCW around v.
      std::unordered_map<int, int> next;
      for (int t : star) {
        const std::array<int, 3>& vs = tri_verts[t];
        int a = -1, b = -1;
        for (int i = 0; i < 3; ++i) {
          if (vs[i] == v) {
            a = vs[(i + 1) % 3];
            b = vs[(i + 2) % 3];
            break;
          }
        }
        DTREE_CHECK(a >= 0 && b >= 0);
        next[a] = b;
      }
      if (next.size() != star.size()) {
        return Status::Internal("inconsistent star around mesh vertex");
      }
      std::vector<int> ring_ids;
      int cur = next.begin()->first;
      for (size_t i = 0; i < next.size(); ++i) {
        ring_ids.push_back(cur);
        auto it = next.find(cur);
        if (it == next.end()) {
          return Status::Internal("open star link around interior vertex");
        }
        cur = it->second;
      }
      if (cur != ring_ids.front()) {
        return Status::Internal("star link does not close");
      }
      std::vector<Point> ring;
      for (int u : ring_ids) ring.push_back(mesh.coords[u]);

      std::vector<Triangle> retris;
      DTREE_RETURN_IF_ERROR(sub::EarClipTriangulate(ring, &retris));
      // Deactivate the star.
      for (int t : star) {
        DTREE_CHECK(active[t]);
        active[t] = false;
        --active_count;
      }
      for (const Triangle& t : retris) {
        const int id = add_triangle(t, -1, level);
        active.push_back(true);
        ++active_count;
        for (int old : star) {
          if (t.OverlapsInterior(tris[old].tri)) {
            tris[id].children.push_back(old);
          }
        }
        if (tris[id].children.empty()) {
          return Status::Internal("hierarchy triangle with no children");
        }
      }
      mesh.incident[v].clear();
    }
  }
  tree.num_levels_ = level + 1;
  for (size_t t = 0; t < tris.size(); ++t) {
    if (active[t]) roots.push_back(static_cast<int>(t));
  }

  std::vector<int> order, pos;
  Result<bcast::PagingResult> paging =
      PageLevelsDescending(options.packet_capacity, &tris, &roots, &order,
                           &pos);
  if (!paging.ok()) return paging.status();
  tree.num_packets_ = paging.value().num_packets;
  tree.index_bytes_ = paging.value().used_bytes;

  // The layout: triangle i at broadcast position i, with the hierarchy's
  // exact doubles.
  TrianTreeArena& a = tree.layout_;
  for (size_t i = 0; i < order.size(); ++i) {
    const TriNode& t = tris[order[i]];
    const bcast::NodeSpan& span = paging.value().spans[i];
    TrianTreeArena::Node n;
    n.tri = t.tri;
    n.first_child = static_cast<uint32_t>(a.child_.size());
    n.count = static_cast<int32_t>(t.children.size());
    for (int c : t.children) a.child_.push_back(static_cast<uint32_t>(pos[c]));
    if (t.children.empty()) {
      n.data_ptr = t.region >= 0 ? bcast::EncodeDataPointer(t.region)
                                 : bcast::kOutsideRegionPtr;
    }
    n.first_packet = span.first_packet;
    n.last_packet = span.last_packet();
    n.offset = static_cast<uint32_t>(span.offset);
    a.nodes_.push_back(n);
  }
  for (int r : roots) a.roots_.push_back(static_cast<uint32_t>(pos[r]));
  a.budget_ = static_cast<int>(a.nodes_.size() + a.child_.size());
  a.ShrinkToFit();
  return tree;
}

Result<bcast::PacketBuffer> TrianTree::SerializePackets() const {
  const TrianTreeArena& a = layout_;
  bcast::PacketBuffer packets(static_cast<size_t>(num_packets_),
                              static_cast<size_t>(options_.packet_capacity));
  for (size_t pos = 0; pos < a.nodes_.size(); ++pos) {
    const TrianTreeArena::Node& n = a.nodes_[pos];
    const size_t count = static_cast<size_t>(n.count);
    if (count > 15) {
      return Status::InvalidArgument(
          "trian-tree node with " + std::to_string(count) +
          " children does not fit the 4-bit count field");
    }
    ByteWriter w;
    w.PutU16(static_cast<uint16_t>((count << 12) | (pos & 0xfff)));
    for (int i = 0; i < 3; ++i) {
      w.PutF32(static_cast<float>(n.tri.v[i].x));
      w.PutF32(static_cast<float>(n.tri.v[i].y));
    }
    if (count == 0) w.PutU32(n.data_ptr);
    for (size_t k = 0; k < count; ++k) {
      const TrianTreeArena::Node& c = a.nodes_[a.child_[n.first_child + k]];
      Result<uint32_t> ptr = bcast::EncodeNodePointer(c.first_packet, c.offset);
      if (!ptr.ok()) return ptr.status();
      w.PutU32(ptr.value());
    }
    DTREE_RETURN_IF_ERROR(packets.WriteNode(static_cast<size_t>(n.first_packet),
                                            n.offset, w.bytes(),
                                            NodeSize(count)));
  }
  return packets;
}

std::vector<std::pair<int, size_t>> TrianTree::RootLocations() const {
  std::vector<std::pair<int, size_t>> roots;
  roots.reserve(layout_.roots_.size());
  for (uint32_t r : layout_.roots_) {
    const TrianTreeArena::Node& n = layout_.nodes_[r];
    roots.emplace_back(n.first_packet, n.offset);
  }
  return roots;
}

}  // namespace dtree::baselines
