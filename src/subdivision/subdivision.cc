#include "subdivision/subdivision.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "geom/predicates.h"

namespace dtree::sub {

namespace {

using geom::BBox;
using geom::kMergeEps;
using geom::Point;
using geom::Polygon;

/// Snap cells are 4x the merge tolerance wide, so the 3x3 cells around a
/// point hold every vertex within kMergeEps of it.
constexpr double kSnapCell = kMergeEps * 4.0;

/// Below this many polygons the T-junction pass runs on the caller, as
/// VoronoiCells and DTree::Build do.
constexpr size_t kMinParallelRegions = 2048;

/// The snap-cell index of coordinate v. False when v is not finite or the
/// index's neighbours (index ± 1) do not fit int64_t: 2^63 is exact and
/// the largest double below it is 2^63 - 1024, so the strict bounds leave
/// room for the ± 1 of the 3x3 probe.
bool SnapIndex(double v, int64_t* index) {
  const double q = std::floor(v / kSnapCell);
  if (!(q > -0x1p63 && q < 0x1p63)) return false;
  *index = static_cast<int64_t>(q);
  return true;
}

/// Maps points to shared vertex ids, merging points within kMergeEps: a
/// point takes the first vertex within the tolerance found in the 3x3
/// snap cells around it (x offset outer, y offset inner, a cell's
/// vertices in insertion order), or else a new id. Cells live in one
/// open-addressed table keyed by Key(cx, cy); a slot holds the first
/// vertex id of its cell, and next_ chains the rest.
class VertexPool {
 public:
  explicit VertexPool(size_t expected) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * expected) ++bits;
    Rehash(bits);
    points_.reserve(expected);
    next_.reserve(expected);
  }

  int Intern(const Point& p, int64_t cx, int64_t cy) {
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        for (int id = heads_[Find(Key(cx + dx, cy + dy))]; id >= 0;
             id = next_[id]) {
          if (geom::NearlyEqual(points_[id], p)) return id;
        }
      }
    }
    const int id = static_cast<int>(points_.size());
    points_.push_back(p);
    next_.push_back(-1);
    const uint64_t key = Key(cx, cy);
    const size_t slot = Find(key);
    if (heads_[slot] >= 0) {
      int tail = heads_[slot];
      while (next_[tail] >= 0) tail = next_[tail];
      next_[tail] = id;
    } else {
      keys_[slot] = key;
      heads_[slot] = id;
      if (2 * ++used_ > keys_.size()) Rehash(bits_ + 1);
    }
    return id;
  }

  std::vector<Point> TakePoints() { return std::move(points_); }

 private:
  /// Distinct cells can share a key; they then share one chain, in
  /// insertion order, exactly as they shared one bucket of the hash map
  /// this table replaced.
  static uint64_t Key(int64_t cx, int64_t cy) {
    return static_cast<uint64_t>(cx) * 0x9e3779b97f4a7c15ULL ^
           static_cast<uint64_t>(cy);
  }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Find(uint64_t key) const {
    size_t slot = static_cast<size_t>((key * 0xbf58476d1ce4e5b9ULL) >>
                                      (64 - bits_));
    while (heads_[slot] >= 0 && keys_[slot] != key) {
      slot = (slot + 1) & (keys_.size() - 1);
    }
    return slot;
  }

  void Rehash(int bits) {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<int> heads = std::move(heads_);
    bits_ = bits;
    keys_.assign(size_t{1} << bits, 0);
    heads_.assign(size_t{1} << bits, -1);
    for (size_t s = 0; s < heads.size(); ++s) {
      if (heads[s] < 0) continue;
      const size_t slot = Find(keys[s]);
      keys_[slot] = keys[s];
      heads_[slot] = heads[s];
    }
  }

  std::vector<Point> points_;
  std::vector<int> next_;  ///< next vertex id in the same cell, or -1
  int bits_ = 0;
  size_t used_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<int> heads_;  ///< first vertex id of the slot's cell, or -1
};

/// Reused buffers of one T-junction shard.
struct SplitScratch {
  std::vector<std::pair<double, int>> on_edge;
  std::vector<int> split;
};

/// Splits every edge of `ring` at the vertices that lie on its interior,
/// in order along the edge, and drops the repeats that creates. Reads only
/// the vertices and the grid; writes only `ring`.
void SplitRing(const std::vector<Point>& pts, const BucketGrid& grid,
               std::vector<int>* ring, SplitScratch* scratch) {
  std::vector<std::pair<double, int>>& on_edge = scratch->on_edge;
  std::vector<int>& split = scratch->split;
  split.clear();
  for (size_t i = 0; i < ring->size(); ++i) {
    const int a = (*ring)[i];
    const int b = (*ring)[(i + 1) % ring->size()];
    split.push_back(a);
    const BBox near{std::min(pts[a].x, pts[b].x) - kMergeEps,
                    std::min(pts[a].y, pts[b].y) - kMergeEps,
                    std::max(pts[a].x, pts[b].x) + kMergeEps,
                    std::max(pts[a].y, pts[b].y) + kMergeEps};
    on_edge.clear();
    grid.ForEachInBox(near, [&](int v) {
      if (v == a || v == b) return;
      if (geom::DistanceToSegment(pts[a], pts[b], pts[v]) > kMergeEps) {
        return;
      }
      // Parameter along the edge for ordering.
      const Point ab = pts[b] - pts[a];
      const double t = geom::Dot(pts[v] - pts[a], ab) / geom::Dot(ab, ab);
      if (t <= 0.0 || t >= 1.0) return;
      on_edge.emplace_back(t, v);
    });
    std::sort(on_edge.begin(), on_edge.end());
    for (const auto& [t, v] : on_edge) {
      if (split.back() != v) split.push_back(v);
    }
  }
  // Remove duplicates created by splits meeting ring vertices.
  size_t kept = 0;
  for (const int v : split) {
    if (kept == 0 || split[kept - 1] != v) split[kept++] = v;
  }
  split.resize(kept);
  while (split.size() > 1 && split.front() == split.back()) split.pop_back();
  ring->assign(split.begin(), split.end());
}

/// One directed ring edge, filed under its lower vertex id.
struct DirectedEdge {
  int hi;      ///< the higher vertex id
  int from;    ///< the vertex the edge leaves
  int region;
  int slot;    ///< position in the flat twin table
};

/// Calls fn(lo, hi, group) for every undirected segment of `rings`, in
/// ascending (lo, hi) order; `group` holds the segment's directed ring
/// edges (no caller depends on their order). A stable counting sort files
/// every edge under its lower vertex id, and each bucket (a handful of
/// edges) is then sorted by the higher one.
template <class Fn>
void ForEachSegment(const std::vector<std::vector<int>>& rings,
                    size_t num_vertices, Fn fn) {
  std::vector<int> start(num_vertices + 1, 0);
  for (const std::vector<int>& ring : rings) {
    for (size_t k = 0; k < ring.size(); ++k) {
      ++start[static_cast<size_t>(
                  std::min(ring[k], ring[(k + 1) % ring.size()])) +
              1];
    }
  }
  for (size_t v = 1; v < start.size(); ++v) start[v] += start[v - 1];
  std::vector<DirectedEdge> edges(static_cast<size_t>(start.back()));
  std::vector<int> cursor(start.begin(), start.end() - 1);
  int slot = 0;
  for (size_t r = 0; r < rings.size(); ++r) {
    const std::vector<int>& ring = rings[r];
    for (size_t k = 0; k < ring.size(); ++k, ++slot) {
      const int a = ring[k];
      const int b = ring[(k + 1) % ring.size()];
      edges[static_cast<size_t>(cursor[static_cast<size_t>(
          std::min(a, b))]++)] = {std::max(a, b), a, static_cast<int>(r),
                                  slot};
    }
  }
  for (size_t lo = 0; lo < num_vertices; ++lo) {
    const auto first = edges.begin() + start[lo];
    const auto last = edges.begin() + start[lo + 1];
    std::sort(first, last, [](const DirectedEdge& a, const DirectedEdge& b) {
      return a.hi < b.hi;
    });
    for (auto group = first; group != last;) {
      auto end = group + 1;
      while (end != last && end->hi == group->hi) ++end;
      fn(static_cast<int>(lo), group->hi,
         std::span<const DirectedEdge>(
             &*group, static_cast<size_t>(end - group)));
      group = end;
    }
  }
}

}  // namespace

Result<Subdivision> Subdivision::FromPolygons(
    const geom::BBox& service_area, const std::vector<Polygon>& polygons,
    int num_threads) {
  if (polygons.empty()) {
    return Status::InvalidArgument("subdivision needs at least one region");
  }
  if (!std::isfinite(service_area.min_x) ||
      !std::isfinite(service_area.min_y) ||
      !std::isfinite(service_area.max_x) ||
      !std::isfinite(service_area.max_y)) {
    return Status::InvalidArgument("service area must be finite");
  }
  if (service_area.empty() || service_area.Area() <= 0.0) {
    return Status::InvalidArgument("service area must have positive area");
  }

  // Snap: intern every vertex, reading clockwise rings backwards (the
  // counter-clockwise order), and drop repeats the snapping creates.
  size_t total = 0;
  for (const Polygon& poly : polygons) total += poly.NumVertices();
  VertexPool pool(total / 2);
  std::vector<std::vector<int>> rings(polygons.size());
  for (size_t i = 0; i < polygons.size(); ++i) {
    const std::vector<Point>& in = polygons[i].ring();
    const double signed_area = polygons[i].SignedArea();
    if (in.size() < 3 || std::abs(signed_area) <= 0.0) {
      return Status::InvalidArgument("region " + std::to_string(i) +
                                     " is degenerate");
    }
    const bool backwards = signed_area < 0.0;
    std::vector<int>& ring = rings[i];
    ring.reserve(in.size());
    for (size_t k = 0; k < in.size(); ++k) {
      const Point& p = in[backwards ? in.size() - 1 - k : k];
      int64_t cx = 0, cy = 0;
      if (!SnapIndex(p.x, &cx) || !SnapIndex(p.y, &cy)) {
        return Status::InvalidArgument(
            "region " + std::to_string(i) +
            " has a non-finite or out-of-range vertex");
      }
      const int id = pool.Intern(p, cx, cy);
      if (ring.empty() || ring.back() != id) ring.push_back(id);
    }
    while (ring.size() > 1 && ring.front() == ring.back()) ring.pop_back();
    if (ring.size() < 3) {
      return Status::InvalidArgument("region " + std::to_string(i) +
                                     " collapsed during vertex snapping");
    }
  }

  Subdivision out;
  out.service_area_ = service_area;
  out.vertices_ = pool.TakePoints();
  const std::vector<Point>& pts = out.vertices_;

  // T-junctions: split every edge at the vertices on its interior, found
  // through a grid of the vertices. The grid only filters candidates, so
  // its 1024 cap does not change results; the cap keeps the per-edge
  // candidate count near-constant up to the N=100k SCALE maps (~600k
  // vertices). Rings are independent, so fixed contiguous shards of them
  // run on the pool and each writes only its own rings and bounds.
  BBox vertex_box = service_area;
  for (const Point& p : pts) vertex_box.Extend(p);
  const BucketGrid grid(vertex_box, BucketGrid::SqrtDim(pts.size(), 1024),
                        pts.size(), [&](size_t v) {
                          return BBox{pts[v].x, pts[v].y, pts[v].x, pts[v].y};
                        });
  out.bounds_.resize(rings.size());
  const int num_shards = static_cast<int>(std::min<size_t>(rings.size(), 64));
  const auto run_shard = [&](int shard) {
    const size_t lo = rings.size() * static_cast<size_t>(shard) /
                      static_cast<size_t>(num_shards);
    const size_t hi = rings.size() * (static_cast<size_t>(shard) + 1) /
                      static_cast<size_t>(num_shards);
    SplitScratch scratch;
    for (size_t r = lo; r < hi; ++r) {
      SplitRing(pts, grid, &rings[r], &scratch);
      BBox b;
      for (const int v : rings[r]) b.Extend(pts[v]);
      out.bounds_[r] = b;
    }
  };
  const int threads =
      num_threads > 0 ? num_threads : ThreadPool::DefaultThreads();
  if (threads <= 1 || rings.size() < kMinParallelRegions) {
    for (int s = 0; s < num_shards; ++s) run_shard(s);
  } else {
    ThreadPool thread_pool(threads);
    thread_pool.ParallelFor(num_shards, run_shard);
  }
  out.rings_ = std::move(rings);

  // Twins: a segment held by one ring edge lies on the border, by two in
  // opposite directions pairs them, and by anything else is unstitched.
  out.ring_offset_.resize(out.rings_.size() + 1);
  out.ring_offset_[0] = 0;
  for (size_t r = 0; r < out.rings_.size(); ++r) {
    out.ring_offset_[r + 1] =
        out.ring_offset_[r] + static_cast<int>(out.rings_[r].size());
  }
  out.edge_twin_.assign(static_cast<size_t>(out.ring_offset_.back()),
                        kBorderEdge);
  std::vector<int>& twin = out.edge_twin_;
  ForEachSegment(out.rings_, pts.size(),
                 [&](int, int, std::span<const DirectedEdge> group) {
                   if (group.size() == 1) return;
                   if (group.size() == 2 && group[0].from != group[1].from) {
                     twin[group[0].slot] = group[1].region;
                     twin[group[1].slot] = group[0].region;
                     return;
                   }
                   for (const DirectedEdge& e : group) {
                     twin[e.slot] = kUnstitchedEdge;
                   }
                 });
  return out;
}

// A built grid is never written again, so a copy may read it unlocked.
Subdivision::LazyBorderGrid& Subdivision::LazyBorderGrid::operator=(
    const LazyBorderGrid& other) {
  if (this == &other) return *this;
  const bool other_built = other.built.load();
  grid = other_built ? other.grid : BorderGrid{};
  built.store(other_built);
  return *this;
}

Subdivision::LazyBorderGrid& Subdivision::LazyBorderGrid::operator=(
    LazyBorderGrid&& other) noexcept {
  if (this == &other) return *this;
  const bool other_built = other.built.load();
  grid = other_built ? std::move(other.grid) : BorderGrid{};
  built.store(other_built);
  other.grid = BorderGrid{};
  other.built.store(false);
  return *this;
}

const Subdivision::BorderGrid& Subdivision::border_grid() const {
  if (!border_grid_.built.load()) {
    const std::lock_guard<std::mutex> lock(border_grid_.mu);
    if (!border_grid_.built.load()) {
      border_grid_.grid = BuildBorderGrid();
      border_grid_.built.store(true);
    }
  }
  return border_grid_.grid;
}

std::vector<Subdivision::Segment> Subdivision::Segments() const {
  std::vector<Segment> segments;
  ForEachSegment(rings_, vertices_.size(),
                 [&](int lo, int hi, std::span<const DirectedEdge> group) {
                   int first = group[0].slot;
                   for (const DirectedEdge& e : group) {
                     first = std::min(first, e.slot);
                   }
                   segments.push_back({lo, hi, first});
                 });
  return segments;
}

Subdivision::BorderGrid Subdivision::BuildBorderGrid() const {
  // Every undirected edge once: a shared border appears in both
  // neighboring rings (reversed) but only needs one distance check. The
  // canonical (lo, hi) direction, not a ring's: DistanceToSegment is not
  // bitwise direction-symmetric, and the full-scan reference evaluates
  // segments in canonical order too, so the two paths stay exactly
  // comparable.
  BorderGrid border;
  border.segments = Segments();
  if (border.segments.empty()) return border;
  BBox box = service_area_;
  for (const Point& p : vertices_) box.Extend(p);
  border.grid = BucketGrid(
      box, BucketGrid::SqrtDim(border.segments.size(), 1024),
      border.segments.size(), [&](size_t i) {
        BBox b;
        b.Extend(vertices_[border.segments[i].lo]);
        b.Extend(vertices_[border.segments[i].hi]);
        return b;
      });
  return border;
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

  // Edge matching, read from the twin table in (region, slot) order: an
  // unstitched edge repeats a directed edge, and a border edge (no
  // reversed copy in any region) must lie on the service-area boundary.
  auto on_border = [&](const Point& p) {
    return std::abs(p.x - service_area_.min_x) <= kMergeEps ||
           std::abs(p.x - service_area_.max_x) <= kMergeEps ||
           std::abs(p.y - service_area_.min_y) <= kMergeEps ||
           std::abs(p.y - service_area_.max_y) <= kMergeEps;
  };
  for (int r = 0; r < NumRegions(); ++r) {
    const std::vector<int>& ring = rings_[r];
    const std::span<const int> twins = EdgeTwins(r);
    for (size_t k = 0; k < ring.size(); ++k) {
      const int a = ring[k];
      const int b = ring[(k + 1) % ring.size()];
      if (a == b) return Status::Internal("zero-length edge");
      if (twins[k] == kUnstitchedEdge) {
        return Status::Internal("duplicate directed edge");
      }
      if (twins[k] == kBorderEdge &&
          !(on_border(vertices_[a]) && on_border(vertices_[b]))) {
        return Status::Internal("unmatched interior edge between vertices " +
                                std::to_string(a) + " and " +
                                std::to_string(b));
      }
    }
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
  const BorderGrid& border = border_grid();
  const BucketGrid& grid = border.grid;
  // The ring bound below holds for p inside the grid's box; with no
  // edges, or outside the box, scan every edge.
  if (grid.dim() == 0 || !grid.box().Contains(p)) {
    return BorderDistanceFullScan(p);
  }
  const int cx = grid.CellX(p.x), cy = grid.CellY(p.y);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r <= grid.MaxRing(cx, cy); ++r) {
    grid.ForEachInRing(cx, cy, r, [&](int s) {
      const Segment& e = border.segments[static_cast<size_t>(s)];
      best = std::min(best, geom::DistanceToSegment(vertices_[e.lo],
                                                    vertices_[e.hi], p));
    });
    // An edge filed past ring r is at least RingClearance(r + 1) away; the
    // property tests in tests/subdivision_test.cc check the exit against
    // BorderDistanceFullScan, on bucket walls too.
    if (best <= grid.RingClearance(r + 1)) break;
  }
  DTREE_DCHECK(std::isfinite(best));
  return best;
}

PointLocator::PointLocator(const Subdivision& sub)
    : sub_(sub),
      grid_(sub.service_area(),
            BucketGrid::SqrtDim(static_cast<size_t>(sub.NumRegions()),
                                std::numeric_limits<int>::max()),
            static_cast<size_t>(sub.NumRegions()),
            [&](size_t i) { return sub.RegionBounds(static_cast<int>(i)); }) {
  polys_.reserve(static_cast<size_t>(sub.NumRegions()));
  for (int i = 0; i < sub.NumRegions(); ++i) {
    polys_.push_back(sub.RegionPolygon(i));
  }
}

int PointLocator::Locate(const geom::Point& p) const {
  if (polys_.empty() || !std::isfinite(p.x) || !std::isfinite(p.y)) {
    return -1;
  }
  const std::span<const int> cands =
      grid_.Bucket(grid_.CellX(p.x), grid_.CellY(p.y));
  for (const int i : cands) {
    if (sub_.RegionBounds(i).Contains(p) && polys_[i].Contains(p)) return i;
  }
  // Numeric-gap fallback: nearest boundary among candidates, then global.
  // Where every distance overflows to infinity, the first candidate (or
  // region 0) stands.
  int best = cands.empty() ? 0 : cands[0];
  double best_d = std::numeric_limits<double>::infinity();
  for (const int i : cands) {
    const double d = polys_[i].DistanceToBoundary(p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (best_d <= kMergeEps * 100.0) return best;
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
