#include "subdivision/subdivision.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "geom/predicates.h"

namespace dtree::sub {

namespace {

using geom::BBox;
using geom::kMergeEps;
using geom::Point;
using geom::Polygon;

/// Maps points to shared vertex ids, merging points within kMergeEps via a
/// uniform grid hash (cells 4x the tolerance wide, 3x3 neighborhood probe).
class VertexPool {
 public:
  VertexPool() : cell_(kMergeEps * 4.0) {}

  int Intern(const Point& p) {
    const int64_t cx = Quantize(p.x);
    const int64_t cy = Quantize(p.y);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        auto it = grid_.find(Key(cx + dx, cy + dy));
        if (it == grid_.end()) continue;
        for (int id : it->second) {
          if (geom::NearlyEqual(points_[id], p)) return id;
        }
      }
    }
    const int id = static_cast<int>(points_.size());
    points_.push_back(p);
    grid_[Key(cx, cy)].push_back(id);
    return id;
  }

  const std::vector<Point>& points() const { return points_; }

 private:
  int64_t Quantize(double v) const {
    return static_cast<int64_t>(std::floor(v / cell_));
  }
  static uint64_t Key(int64_t cx, int64_t cy) {
    return static_cast<uint64_t>(cx) * 0x9e3779b97f4a7c15ULL ^
           static_cast<uint64_t>(cy);
  }

  double cell_;
  std::vector<Point> points_;
  std::unordered_map<uint64_t, std::vector<int>> grid_;
};

}  // namespace

Result<Subdivision> Subdivision::FromPolygons(
    const geom::BBox& service_area, const std::vector<Polygon>& polygons) {
  if (polygons.empty()) {
    return Status::InvalidArgument("subdivision needs at least one region");
  }
  if (service_area.empty() || service_area.Area() <= 0.0) {
    return Status::InvalidArgument("service area must have positive area");
  }

  VertexPool pool;
  std::vector<std::vector<int>> rings;
  rings.reserve(polygons.size());
  for (size_t i = 0; i < polygons.size(); ++i) {
    Polygon poly = polygons[i];
    if (poly.NumVertices() < 3 || poly.Area() <= 0.0) {
      return Status::InvalidArgument("region " + std::to_string(i) +
                                     " is degenerate");
    }
    poly.EnsureCCW();
    std::vector<int> ring;
    ring.reserve(poly.NumVertices());
    for (const Point& p : poly.ring()) {
      const int id = pool.Intern(p);
      if (ring.empty() || ring.back() != id) ring.push_back(id);
    }
    while (ring.size() > 1 && ring.front() == ring.back()) ring.pop_back();
    if (ring.size() < 3) {
      return Status::InvalidArgument("region " + std::to_string(i) +
                                     " collapsed during vertex snapping");
    }
    rings.push_back(std::move(ring));
  }

  // T-junction pass: split every edge at vertices that lie on its interior.
  const std::vector<Point>& pts = pool.points();
  // Coarse spatial grid over the vertices for T-junction candidate lookup
  // (the snapping grid's cells are far too fine to scan per edge).
  BBox all_box = service_area;
  for (const Point& p : pts) all_box.Extend(p);
  // 1024^2 cells keep the per-edge candidate count near-constant up to the
  // N=100k SCALE datasets (~600k vertices); the grid only filters
  // candidates, so the cap does not affect results.
  const int gdim = std::clamp(
      static_cast<int>(std::sqrt(static_cast<double>(pts.size()))), 1, 1024);
  const double gw = std::max(all_box.width(), 1e-9) / gdim;
  const double gh = std::max(all_box.height(), 1e-9) / gdim;
  std::vector<std::vector<int>> coarse(static_cast<size_t>(gdim) * gdim);
  auto cell_of = [&](double x, double y) {
    const int cx = std::clamp(
        static_cast<int>((x - all_box.min_x) / gw), 0, gdim - 1);
    const int cy = std::clamp(
        static_cast<int>((y - all_box.min_y) / gh), 0, gdim - 1);
    return std::pair<int, int>{cx, cy};
  };
  for (size_t v = 0; v < pts.size(); ++v) {
    const auto [cx, cy] = cell_of(pts[v].x, pts[v].y);
    coarse[static_cast<size_t>(cy) * gdim + cx].push_back(
        static_cast<int>(v));
  }
  // Appends candidates instead of returning a fresh vector: this runs once
  // per edge (~6 * N times), and the allocation dominated the pass at
  // SCALE sizes.
  std::vector<int> cand;
  auto coarse_query = [&](const BBox& box) {
    cand.clear();
    const auto [x0, y0] = cell_of(box.min_x - kMergeEps,
                                  box.min_y - kMergeEps);
    const auto [x1, y1] = cell_of(box.max_x + kMergeEps,
                                  box.max_y + kMergeEps);
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        const auto& cell = coarse[static_cast<size_t>(cy) * gdim + cx];
        cand.insert(cand.end(), cell.begin(), cell.end());
      }
    }
  };

  std::vector<std::pair<double, int>> on_edge;
  std::vector<int> split;
  for (std::vector<int>& ring : rings) {
    split.clear();
    split.reserve(ring.size() + 8);
    for (size_t i = 0; i < ring.size(); ++i) {
      const int a = ring[i];
      const int b = ring[(i + 1) % ring.size()];
      split.push_back(a);
      BBox edge_box;
      edge_box.Extend(pts[a]);
      edge_box.Extend(pts[b]);
      on_edge.clear();
      coarse_query(edge_box);
      for (int v : cand) {
        if (v == a || v == b) continue;
        if (geom::DistanceToSegment(pts[a], pts[b], pts[v]) > kMergeEps) {
          continue;
        }
        // Parameter along the edge for ordering.
        const Point ab = pts[b] - pts[a];
        const double t =
            geom::Dot(pts[v] - pts[a], ab) / geom::Dot(ab, ab);
        if (t <= 0.0 || t >= 1.0) continue;
        on_edge.emplace_back(t, v);
      }
      std::sort(on_edge.begin(), on_edge.end());
      for (const auto& [t, v] : on_edge) {
        if (split.back() != v) split.push_back(v);
      }
    }
    // Remove duplicates created by splits meeting ring vertices.
    std::vector<int> dedup;
    for (int v : split) {
      if (dedup.empty() || dedup.back() != v) dedup.push_back(v);
    }
    while (dedup.size() > 1 && dedup.front() == dedup.back()) dedup.pop_back();
    ring = std::move(dedup);
  }

  Subdivision out;
  out.service_area_ = service_area;
  out.vertices_ = pool.points();
  out.rings_ = std::move(rings);
  out.bounds_.reserve(out.rings_.size());
  for (const std::vector<int>& ring : out.rings_) {
    BBox b;
    for (int v : ring) b.Extend(out.vertices_[v]);
    out.bounds_.push_back(b);
  }
  out.BuildBorderGrid();
  return out;
}

void Subdivision::BuildBorderGrid() {
  ring_offset_.resize(rings_.size() + 1);
  ring_offset_[0] = 0;
  for (size_t r = 0; r < rings_.size(); ++r) {
    ring_offset_[r + 1] =
        ring_offset_[r] + static_cast<int>(rings_[r].size());
  }
  edge_twin_.assign(static_cast<size_t>(ring_offset_.back()), kBorderEdge);

  // Unique undirected edges: a shared border appears in both neighboring
  // rings (reversed) but only needs one distance check. Each maps to the
  // first (region, ring slot) that holds it, which pairs the edge twins.
  struct EdgeRef {
    int region;
    int slot;
  };
  std::unordered_map<uint64_t, EdgeRef> unique_edges;
  for (int r = 0; r < NumRegions(); ++r) {
    const std::vector<int>& ring = rings_[r];
    for (size_t i = 0; i < ring.size(); ++i) {
      const int a = ring[i];
      const int b = ring[(i + 1) % ring.size()];
      const int lo = std::min(a, b), hi = std::max(a, b);
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
          static_cast<uint32_t>(hi);
      const auto [it, inserted] =
          unique_edges.emplace(key, EdgeRef{r, static_cast<int>(i)});
      if (inserted) continue;
      const EdgeRef seen = it->second;
      int& first = edge_twin_[ring_offset_[seen.region] + seen.slot];
      int& here = edge_twin_[ring_offset_[r] + i];
      if (first == kBorderEdge && rings_[seen.region][seen.slot] == b) {
        first = r;  // the first ring runs b -> a: a stitched border
        here = seen.region;
        continue;
      }
      // A third ring on this segment, or a second one in the same
      // direction: mark every ring that holds it.
      if (first >= 0) {
        const std::vector<int>& twin_ring = rings_[first];
        for (size_t k = 0; k < twin_ring.size(); ++k) {
          const int u = twin_ring[k];
          const int v = twin_ring[(k + 1) % twin_ring.size()];
          if (std::min(u, v) == lo && std::max(u, v) == hi) {
            edge_twin_[ring_offset_[first] + k] = kUnstitchedEdge;
          }
        }
      }
      first = kUnstitchedEdge;
      here = kUnstitchedEdge;
    }
  }
  border_edges_.clear();
  border_edges_.reserve(unique_edges.size());
  // The canonical (lo, hi) direction, not the first-seen ring direction:
  // DistanceToSegment is not bitwise direction-symmetric, and the
  // full-scan reference evaluates segments in canonical order too, so the
  // two paths stay exactly comparable.
  for (const auto& [key, e] : unique_edges) {
    border_edges_.emplace_back(static_cast<int>(key >> 32),
                               static_cast<int>(key & 0xffffffffu));
  }
  if (border_edges_.empty()) {
    border_grid_dim_ = 0;
    return;
  }

  border_grid_box_ = service_area_;
  for (const Point& p : vertices_) border_grid_box_.Extend(p);
  border_grid_dim_ = std::clamp(
      static_cast<int>(std::sqrt(static_cast<double>(border_edges_.size()))),
      1, 1024);
  border_cell_w_ =
      std::max(border_grid_box_.width(), 1e-9) / border_grid_dim_;
  border_cell_h_ =
      std::max(border_grid_box_.height(), 1e-9) / border_grid_dim_;
  border_cells_.assign(
      static_cast<size_t>(border_grid_dim_) * border_grid_dim_, {});
  auto cell_index = [&](double v, double lo, double step) {
    return std::clamp(static_cast<int>((v - lo) / step), 0,
                      border_grid_dim_ - 1);
  };
  for (size_t e = 0; e < border_edges_.size(); ++e) {
    const Point& a = vertices_[border_edges_[e].first];
    const Point& b = vertices_[border_edges_[e].second];
    const int x0 = cell_index(std::min(a.x, b.x), border_grid_box_.min_x,
                              border_cell_w_);
    const int x1 = cell_index(std::max(a.x, b.x), border_grid_box_.min_x,
                              border_cell_w_);
    const int y0 = cell_index(std::min(a.y, b.y), border_grid_box_.min_y,
                              border_cell_h_);
    const int y1 = cell_index(std::max(a.y, b.y), border_grid_box_.min_y,
                              border_cell_h_);
    for (int gy = y0; gy <= y1; ++gy) {
      for (int gx = x0; gx <= x1; ++gx) {
        border_cells_[static_cast<size_t>(gy) * border_grid_dim_ + gx]
            .push_back(static_cast<int>(e));
      }
    }
  }
}

Polygon Subdivision::RegionPolygon(int i) const {
  DTREE_CHECK(i >= 0 && i < NumRegions());
  std::vector<Point> ring;
  ring.reserve(rings_[i].size());
  for (int v : rings_[i]) ring.push_back(vertices_[v]);
  return Polygon(std::move(ring));
}

Status Subdivision::Validate() const {
  if (rings_.empty()) return Status::FailedPrecondition("no regions");
  double area_sum = 0.0;
  for (int i = 0; i < NumRegions(); ++i) {
    const Polygon poly = RegionPolygon(i);
    if (poly.NumVertices() < 3) {
      return Status::Internal("region " + std::to_string(i) +
                              " has fewer than 3 vertices");
    }
    if (poly.SignedArea() <= 0.0) {
      return Status::Internal("region " + std::to_string(i) + " is not CCW");
    }
    area_sum += poly.Area();
    const BBox b = poly.Bounds();
    const double slack = kMergeEps * 10.0;
    if (b.min_x < service_area_.min_x - slack ||
        b.max_x > service_area_.max_x + slack ||
        b.min_y < service_area_.min_y - slack ||
        b.max_y > service_area_.max_y + slack) {
      return Status::Internal("region " + std::to_string(i) +
                              " escapes the service area");
    }
  }
  const double expect = service_area_.Area();
  if (std::abs(area_sum - expect) > 1e-3 * expect) {
    return Status::Internal("region areas sum to " + std::to_string(area_sum) +
                            ", expected " + std::to_string(expect));
  }

  // Edge matching: each directed edge's reverse must exist in some region,
  // unless the edge lies on the service-area boundary.
  std::unordered_map<uint64_t, int> edge_count;
  auto key = [](int a, int b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  };
  for (const std::vector<int>& ring : rings_) {
    for (size_t i = 0; i < ring.size(); ++i) {
      const int a = ring[i];
      const int b = ring[(i + 1) % ring.size()];
      if (a == b) return Status::Internal("zero-length edge");
      ++edge_count[key(a, b)];
    }
  }
  auto on_border = [&](const Point& p) {
    return std::abs(p.x - service_area_.min_x) <= kMergeEps ||
           std::abs(p.x - service_area_.max_x) <= kMergeEps ||
           std::abs(p.y - service_area_.min_y) <= kMergeEps ||
           std::abs(p.y - service_area_.max_y) <= kMergeEps;
  };
  for (const auto& [k, count] : edge_count) {
    if (count != 1) return Status::Internal("duplicate directed edge");
    const int a = static_cast<int>(k >> 32);
    const int b = static_cast<int>(k & 0xffffffffu);
    if (edge_count.count(key(b, a)) > 0) continue;  // shared with neighbor
    if (on_border(vertices_[a]) && on_border(vertices_[b])) continue;
    return Status::Internal("unmatched interior edge between vertices " +
                            std::to_string(a) + " and " + std::to_string(b));
  }
  return Status::OK();
}

double Subdivision::BorderDistanceFullScan(const geom::Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < NumRegions(); ++i) {
    const std::vector<int>& ring = rings_[i];
    for (size_t j = 0; j < ring.size(); ++j) {
      // Canonical (lo, hi) endpoint order, matching the border grid:
      // DistanceToSegment(a, b, p) and DistanceToSegment(b, a, p) can
      // differ in the last ulp, and a shared edge appears here in both
      // ring directions. Canonicalizing makes this scan bitwise comparable
      // with the grid-accelerated path.
      const int u = ring[j];
      const int v = ring[(j + 1) % ring.size()];
      const Point& a = vertices_[std::min(u, v)];
      const Point& b = vertices_[std::max(u, v)];
      best = std::min(best, geom::DistanceToSegment(a, b, p));
    }
  }
  return best;
}

double Subdivision::DistanceToNearestBorder(const geom::Point& p) const {
  if (border_grid_dim_ == 0) return BorderDistanceFullScan(p);
  // The expanding-ring bound below assumes p lies inside its own grid
  // cell; outside the grid extent, fall back to the full scan.
  if (!border_grid_box_.Contains(p)) return BorderDistanceFullScan(p);

  const int cx = std::clamp(
      static_cast<int>((p.x - border_grid_box_.min_x) / border_cell_w_), 0,
      border_grid_dim_ - 1);
  const int cy = std::clamp(
      static_cast<int>((p.y - border_grid_box_.min_y) / border_cell_h_), 0,
      border_grid_dim_ - 1);
  const double min_cell = std::min(border_cell_w_, border_cell_h_);

  double best = std::numeric_limits<double>::infinity();
  auto scan_cell = [&](int gx, int gy) {
    if (gx < 0 || gy < 0 || gx >= border_grid_dim_ || gy >= border_grid_dim_)
      return;
    for (int e :
         border_cells_[static_cast<size_t>(gy) * border_grid_dim_ + gx]) {
      const Point& a = vertices_[border_edges_[e].first];
      const Point& b = vertices_[border_edges_[e].second];
      best = std::min(best, geom::DistanceToSegment(a, b, p));
    }
  };
  for (int ring = 0; ring < border_grid_dim_; ++ring) {
    if (ring == 0) {
      scan_cell(cx, cy);
    } else {
      for (int gx = cx - ring; gx <= cx + ring; ++gx) {
        scan_cell(gx, cy - ring);
        scan_cell(gx, cy + ring);
      }
      for (int gy = cy - ring + 1; gy <= cy + ring - 1; ++gy) {
        scan_cell(cx - ring, gy);
        scan_cell(cx + ring, gy);
      }
    }
    // Termination bound, audited for exactness: after scanning ring r, the
    // nearest uncovered cells sit at Chebyshev ring r+1, whose guaranteed
    // clearance is min_cell * ((r+1) - 1) = r * min_cell. That clearance
    // only relies on p lying inside its own *closed* grid cell, which the
    // clamp+floor cell assignment preserves even when p sits exactly on a
    // grid-cell boundary (the boundary belongs to both cells; p is assigned
    // to the right/upper one and still touches it). So breaking once
    // best <= r * min_cell can never skip a closer edge; the property test
    // in tests/subdivision_test.cc checks this against
    // BorderDistanceFullScan on boundary-aligned points.
    if (best <= static_cast<double>(ring) * min_cell) break;
  }
  DTREE_DCHECK(std::isfinite(best));
  return best;
}

PointLocator::PointLocator(const Subdivision& sub) : sub_(sub) {
  const int n = sub.NumRegions();
  polys_.reserve(n);
  for (int i = 0; i < n; ++i) polys_.push_back(sub.RegionPolygon(i));
  grid_dim_ = std::max(1, static_cast<int>(std::sqrt(static_cast<double>(n))));
  const BBox& area = sub.service_area();
  cell_w_ = area.width() / grid_dim_;
  cell_h_ = area.height() / grid_dim_;
  cells_.assign(static_cast<size_t>(grid_dim_) * grid_dim_, {});
  for (int i = 0; i < n; ++i) {
    const BBox& b = sub.RegionBounds(i);
    const int x0 = std::clamp(
        static_cast<int>((b.min_x - area.min_x) / cell_w_), 0, grid_dim_ - 1);
    const int x1 = std::clamp(
        static_cast<int>((b.max_x - area.min_x) / cell_w_), 0, grid_dim_ - 1);
    const int y0 = std::clamp(
        static_cast<int>((b.min_y - area.min_y) / cell_h_), 0, grid_dim_ - 1);
    const int y1 = std::clamp(
        static_cast<int>((b.max_y - area.min_y) / cell_h_), 0, grid_dim_ - 1);
    for (int gx = x0; gx <= x1; ++gx) {
      for (int gy = y0; gy <= y1; ++gy) {
        cells_[static_cast<size_t>(gy) * grid_dim_ + gx].push_back(i);
      }
    }
  }
}

int PointLocator::Locate(const geom::Point& p) const {
  if (polys_.empty()) return -1;
  const BBox& area = sub_.service_area();
  const int gx = std::clamp(static_cast<int>((p.x - area.min_x) / cell_w_), 0,
                            grid_dim_ - 1);
  const int gy = std::clamp(static_cast<int>((p.y - area.min_y) / cell_h_), 0,
                            grid_dim_ - 1);
  const std::vector<int>& cands =
      cells_[static_cast<size_t>(gy) * grid_dim_ + gx];
  for (int i : cands) {
    if (sub_.RegionBounds(i).Contains(p) && polys_[i].Contains(p)) return i;
  }
  // Numeric-gap fallback: nearest boundary among candidates, then global.
  int best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (int i : cands) {
    const double d = polys_[i].DistanceToBoundary(p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (best >= 0 && best_d <= kMergeEps * 100.0) return best;
  for (size_t i = 0; i < polys_.size(); ++i) {
    if (polys_[i].Contains(p)) return static_cast<int>(i);
    const double d = polys_[i].DistanceToBoundary(p);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace dtree::sub
