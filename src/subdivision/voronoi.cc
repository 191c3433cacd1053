#include "subdivision/voronoi.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "geom/polygon.h"

namespace dtree::sub {

namespace {

using geom::BBox;
using geom::Point;
using geom::Polygon;

Polygon RectPolygon(const BBox& b) {
  return Polygon(std::vector<Point>{{b.min_x, b.min_y},
                                    {b.max_x, b.min_y},
                                    {b.max_x, b.max_y},
                                    {b.min_x, b.max_y}});
}

/// Maximum distance from `site` to any vertex of `cell`. Any other site
/// farther than twice this distance cannot cut the cell: its bisector lies
/// entirely beyond the cell.
double MaxVertexDistance(const Point& site, const Polygon& cell) {
  double m = 0.0;
  for (const Point& p : cell.ring()) {
    m = std::max(m, geom::Distance(site, p));
  }
  return m;
}

Status ValidateInput(const std::vector<Point>& sites, const BBox& area) {
  if (sites.empty()) return Status::InvalidArgument("no sites");
  if (area.empty() || area.Area() <= 0.0) {
    return Status::InvalidArgument("service area must have positive area");
  }
  for (size_t i = 0; i < sites.size(); ++i) {
    if (!area.Contains(sites[i])) {
      return Status::InvalidArgument("site " + std::to_string(i) +
                                     " lies outside the service area");
    }
  }
  return Status::OK();
}

/// Uniform bucket grid over the service area, CSR layout with site ids
/// ascending inside each bucket. A site in a bucket at Chebyshev ring
/// distance r from the query's bucket is at least (r - 1) * min_cell away
/// (both points lie in their own closed bucket rectangles, so only the gap
/// of r - 1 whole buckets between them is guaranteed); that clearance is
/// what lets the expanding-ring drain below stop early.
class SiteGrid {
 public:
  SiteGrid(const std::vector<Point>& sites, const BBox& area) {
    const size_t n = sites.size();
    dim_ = std::clamp(static_cast<int>(std::sqrt(static_cast<double>(n))), 1,
                      2048);
    origin_x_ = area.min_x;
    origin_y_ = area.min_y;
    cell_w_ = area.width() / dim_;
    cell_h_ = area.height() / dim_;
    min_cell_ = std::min(cell_w_, cell_h_);
    offsets_.assign(static_cast<size_t>(dim_) * dim_ + 1, 0);
    for (const Point& p : sites) ++offsets_[BucketIndex(p) + 1];
    for (size_t b = 1; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
    ids_.resize(n);
    std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      ids_[static_cast<size_t>(cursor[BucketIndex(sites[i])]++)] =
          static_cast<int>(i);
    }
  }

  int dim() const { return dim_; }
  double min_cell() const { return min_cell_; }

  int CellX(double x) const {
    return Clamp(static_cast<int>((x - origin_x_) / cell_w_));
  }
  int CellY(double y) const {
    return Clamp(static_cast<int>((y - origin_y_) / cell_h_));
  }

  /// Calls fn(site_id) for every site bucketed in grid cell (bx, by).
  template <typename Fn>
  void ForBucket(int bx, int by, const Fn& fn) const {
    const size_t b =
        static_cast<size_t>(by) * static_cast<size_t>(dim_) +
        static_cast<size_t>(bx);
    for (int k = offsets_[b]; k < offsets_[b + 1]; ++k) fn(ids_[k]);
  }

  /// Calls fn(site_id) for every site at Chebyshev bucket distance exactly
  /// `ring` from (cx, cy), in fixed row-major bucket order.
  template <typename Fn>
  void ForRing(int cx, int cy, int ring, const Fn& fn) const {
    if (ring == 0) {
      ForBucket(cx, cy, fn);
      return;
    }
    const int x0 = cx - ring, x1 = cx + ring;
    const int y0 = cy - ring, y1 = cy + ring;
    for (int y = y0; y <= y1; ++y) {
      if (y < 0 || y >= dim_) continue;
      const bool edge_row = (y == y0 || y == y1);
      const int step = edge_row ? 1 : (x1 - x0 == 0 ? 1 : x1 - x0);
      for (int x = x0; x <= x1; x += step) {
        if (x < 0 || x >= dim_) continue;
        ForBucket(x, y, fn);
      }
    }
  }

 private:
  int Clamp(int v) const { return std::min(std::max(v, 0), dim_ - 1); }
  size_t BucketIndex(const Point& p) const {
    return static_cast<size_t>(CellY(p.y)) * static_cast<size_t>(dim_) +
           static_cast<size_t>(CellX(p.x));
  }

  int dim_ = 1;
  double origin_x_ = 0.0, origin_y_ = 0.0;
  double cell_w_ = 1.0, cell_h_ = 1.0, min_cell_ = 1.0;
  std::vector<int> offsets_;  ///< dim*dim + 1 CSR offsets
  std::vector<int> ids_;      ///< site ids grouped by bucket, ascending
};

/// Rejects duplicate and near-coincident sites before any clipping runs:
/// two sites within kMinSiteSeparation would carve a sliver cell thinner
/// than the stitcher's merge tolerance, which either vanishes under
/// ClipHalfPlane or collapses during vertex snapping and breaks the tiling
/// invariant. Deterministic: scans sites in ascending order against already
/// seen neighbors, so the reported pair never depends on thread count.
Status CheckMinSeparation(const std::vector<Point>& sites,
                          const SiteGrid& grid) {
  // Buckets are normally much wider than the separation radius; the reach
  // only grows past 1 for pathologically tiny service areas.
  const int reach = std::max(
      1, static_cast<int>(std::ceil(kMinSiteSeparation / grid.min_cell())));
  constexpr double kSepSq = kMinSiteSeparation * kMinSiteSeparation;
  for (size_t i = 0; i < sites.size(); ++i) {
    const Point& s = sites[i];
    const int cx = grid.CellX(s.x), cy = grid.CellY(s.y);
    for (int r = 0; r <= reach; ++r) {
      int hit = -1;
      grid.ForRing(cx, cy, r, [&](int j) {
        if (static_cast<size_t>(j) < i && hit < 0 &&
            geom::DistanceSquared(s, sites[static_cast<size_t>(j)]) < kSepSq) {
          hit = j;
        }
      });
      if (hit >= 0) {
        return Status::InvalidArgument(
            "sites " + std::to_string(hit) + " and " + std::to_string(i) +
            " coincide within the minimum separation (" +
            std::to_string(kMinSiteSeparation) + ")");
      }
    }
  }
  return Status::OK();
}

/// Min-heap of (distance^2, site id) candidate cutters.
using CandidateHeap = std::vector<std::pair<double, int>>;

/// Clips the cell of sites[i] against nearby sites in globally ascending
/// (distance, id) order. The heap is fed one Chebyshev ring of buckets at a
/// time; a candidate is only popped once it is provably nearer than every
/// site in the uncollected rings, so the clip sequence is identical to the
/// sort-all-sites reference for any grid dimension and any thread count.
Status ClipCell(const std::vector<Point>& sites, const BBox& area,
                const SiteGrid& grid, size_t i, CandidateHeap* heap,
                Polygon* out) {
  const Point& s = sites[i];
  Polygon cell = RectPolygon(area);
  double reach = MaxVertexDistance(s, cell);

  heap->clear();
  const int cx = grid.CellX(s.x), cy = grid.CellY(s.y);
  const int max_ring = std::max(std::max(cx, grid.dim() - 1 - cx),
                                std::max(cy, grid.dim() - 1 - cy));
  int next_ring = 0;
  const auto ring_clearance_sq = [&](int ring) {
    const double lb = std::max(0, ring - 1) * grid.min_cell();
    return lb * lb;
  };

  while (true) {
    // Drain rings until the heap's minimum beats every uncollected site.
    while (next_ring <= max_ring &&
           (heap->empty() ||
            heap->front().first >= ring_clearance_sq(next_ring))) {
      grid.ForRing(cx, cy, next_ring, [&](int j) {
        if (static_cast<size_t>(j) == i) return;
        heap->emplace_back(geom::DistanceSquared(s, sites[static_cast<size_t>(j)]),
                           j);
        std::push_heap(heap->begin(), heap->end(),
                       std::greater<std::pair<double, int>>());
      });
      ++next_ring;
    }
    if (heap->empty()) break;  // no other sites at all
    std::pop_heap(heap->begin(), heap->end(),
                  std::greater<std::pair<double, int>>());
    const auto [d2, j] = heap->back();
    heap->pop_back();

    const Point& t = sites[static_cast<size_t>(j)];
    // sqrt(DistanceSquared) is bitwise geom::Distance, so the break test
    // below makes the exact decisions the reference implementation makes.
    const double d = std::sqrt(d2);
    if (d <= geom::kMergeEps) {
      return Status::InvalidArgument(
          "duplicate sites " + std::to_string(std::min<size_t>(i, j)) +
          " and " + std::to_string(std::max<size_t>(i, j)));
    }
    if (d / 2.0 > reach) break;  // no remaining site can touch the cell
    // Keep the side closer to s: |p-s|^2 <= |p-t|^2
    //   <=> 2(t-s).p <= |t|^2 - |s|^2.
    const double a = 2.0 * (t.x - s.x);
    const double b = 2.0 * (t.y - s.y);
    const double c = (s.x * s.x + s.y * s.y) - (t.x * t.x + t.y * t.y);
    Polygon clipped = geom::ClipHalfPlane(cell, a, b, c);
    if (clipped.empty()) {
      return Status::InvalidArgument("Voronoi cell of site " +
                                     std::to_string(i) +
                                     " vanished (degenerate input)");
    }
    cell = std::move(clipped);
    reach = MaxVertexDistance(s, cell);
  }
  cell.EnsureCCW();
  *out = std::move(cell);
  return Status::OK();
}

}  // namespace

Result<std::vector<Polygon>> VoronoiCells(const std::vector<Point>& sites,
                                          const BBox& service_area,
                                          const VoronoiOptions& options) {
  DTREE_RETURN_IF_ERROR(ValidateInput(sites, service_area));
  const size_t n = sites.size();
  const SiteGrid grid(sites, service_area);
  DTREE_RETURN_IF_ERROR(CheckMinSeparation(sites, grid));

  std::vector<Polygon> cells(n);
  const int num_shards = static_cast<int>(std::min<size_t>(n, 64));
  std::vector<Status> shard_status(static_cast<size_t>(num_shards),
                                   Status::OK());
  // Fixed shard -> site mapping with per-slot writes: the output (and any
  // error) is a pure function of the input, never of thread scheduling.
  const auto run_shard = [&](int shard) {
    const size_t lo = n * static_cast<size_t>(shard) /
                      static_cast<size_t>(num_shards);
    const size_t hi = n * (static_cast<size_t>(shard) + 1) /
                      static_cast<size_t>(num_shards);
    CandidateHeap heap;
    for (size_t i = lo; i < hi; ++i) {
      Status st = ClipCell(sites, service_area, grid, i, &heap, &cells[i]);
      if (!st.ok()) {
        shard_status[static_cast<size_t>(shard)] = std::move(st);
        return;  // first (lowest-site) error of this shard wins
      }
    }
  };

  const int threads = options.num_threads > 0 ? options.num_threads
                                              : ThreadPool::DefaultThreads();
  if (threads <= 1 || n < 2048) {
    for (int s = 0; s < num_shards; ++s) run_shard(s);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(num_shards, run_shard);
  }
  // Shards cover ascending site ranges, so the first failed shard carries
  // the lowest failing site: deterministic error selection.
  for (const Status& st : shard_status) {
    if (!st.ok()) return st;
  }
  return cells;
}

Result<std::vector<Polygon>> VoronoiCells(const std::vector<Point>& sites,
                                          const BBox& service_area) {
  return VoronoiCells(sites, service_area, VoronoiOptions{});
}

Result<std::vector<Polygon>> VoronoiCellsReference(
    const std::vector<Point>& sites, const BBox& service_area) {
  const size_t n = sites.size();
  DTREE_RETURN_IF_ERROR(ValidateInput(sites, service_area));

  std::vector<Polygon> cells;
  cells.reserve(n);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    const Point& s = sites[i];
    // Clip against the other sites from nearest to farthest, in the grid
    // path's (distance^2, id) order; the running distance bound prunes
    // most of them.
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double da = geom::DistanceSquared(s, sites[a]);
      const double db = geom::DistanceSquared(s, sites[b]);
      return da != db ? da < db : a < b;
    });
    Polygon cell = RectPolygon(service_area);
    double reach = MaxVertexDistance(s, cell);
    for (size_t j : order) {
      if (j == i) continue;
      const Point& t = sites[j];
      const double d = geom::Distance(s, t);
      if (d <= geom::kMergeEps) {
        return Status::InvalidArgument("duplicate sites " + std::to_string(i) +
                                       " and " + std::to_string(j));
      }
      if (d / 2.0 > reach) break;  // bisector cannot touch the cell
      // Keep the side closer to s: |p-s|^2 <= |p-t|^2
      //   <=> 2(t-s).p <= |t|^2 - |s|^2.
      const double a = 2.0 * (t.x - s.x);
      const double b = 2.0 * (t.y - s.y);
      const double c = (s.x * s.x + s.y * s.y) - (t.x * t.x + t.y * t.y);
      Polygon clipped = geom::ClipHalfPlane(cell, a, b, c);
      if (clipped.empty()) {
        return Status::Internal("Voronoi cell of site " + std::to_string(i) +
                                " vanished (degenerate input)");
      }
      cell = std::move(clipped);
      reach = MaxVertexDistance(s, cell);
    }
    cell.EnsureCCW();
    cells.push_back(std::move(cell));
  }
  return cells;
}

Result<Subdivision> BuildVoronoiSubdivision(const std::vector<Point>& sites,
                                            const BBox& service_area,
                                            const VoronoiOptions& options) {
  Result<std::vector<Polygon>> cells =
      VoronoiCells(sites, service_area, options);
  if (!cells.ok()) return cells.status();
  return Subdivision::FromPolygons(service_area, cells.value(),
                                   options.num_threads);
}

Result<Subdivision> BuildVoronoiSubdivision(const std::vector<Point>& sites,
                                            const BBox& service_area) {
  return BuildVoronoiSubdivision(sites, service_area, VoronoiOptions{});
}

}  // namespace dtree::sub
