// Voronoi-based construction of data-region valid scopes.
//
// The paper builds the valid scopes of its datasets "using the Voronoi
// Diagram approach": the region of site s is the set of points closer to s
// than to any other site, clipped to the service area. This implementation
// clips each cell by the perpendicular-bisector half-planes of the other
// sites, visited in ascending distance order through a uniform bucket grid:
// candidates are drained from an expanding Chebyshev ring of grid cells and
// the running MaxVertexDistance bound stops the drain once no remaining site
// can cut the cell. Per-cell work is near-constant on realistic inputs, so
// the whole diagram is O(N) expected instead of the O(N^2 log N) of the
// sort-everything formulation (kept as VoronoiCellsReference).
//
// Cells are independent, so clipping is parallelized over ThreadPool with a
// fixed shard -> site mapping and per-slot output writes; the result is
// bit-identical for every thread count.

#ifndef DTREE_SUBDIVISION_VORONOI_H_
#define DTREE_SUBDIVISION_VORONOI_H_

#include <vector>

#include "common/status.h"
#include "geom/point.h"
#include "subdivision/subdivision.h"

namespace dtree::sub {

/// Sites closer than this are rejected as near-coincident: they would carve
/// a cell thinner than the stitcher's vertex-merge tolerance (geom::kMergeEps),
/// which collapses during snapping and breaks the tiling invariant. The 4x
/// factor leaves a 2x margin over the snap radius on each side of the
/// bisector.
inline constexpr double kMinSiteSeparation = 4.0 * geom::kMergeEps;

struct VoronoiOptions {
  /// Threads used for per-cell clipping and, in BuildVoronoiSubdivision,
  /// for the stitch's T-junction pass; <= 0 selects
  /// ThreadPool::DefaultThreads(). Output is bit-identical for every value.
  int num_threads = 0;
};

/// Computes the Voronoi cell polygons of `sites` clipped to `service_area`.
/// Cell i corresponds to sites[i]. Fails with InvalidArgument when sites are
/// empty, any site is outside the service area, or two sites lie within
/// kMinSiteSeparation of each other (duplicate and near-coincident inputs
/// are detected up front instead of surfacing as degenerate sliver cells).
Result<std::vector<geom::Polygon>> VoronoiCells(
    const std::vector<geom::Point>& sites, const geom::BBox& service_area);
Result<std::vector<geom::Polygon>> VoronoiCells(
    const std::vector<geom::Point>& sites, const geom::BBox& service_area,
    const VoronoiOptions& options);

/// The pre-grid serial formulation: per cell, sorts all other sites by
/// distance and clips until the distance bound prunes the tail. Kept
/// verbatim as the byte-identity oracle for tests, the CI digest gate, and
/// the bench_build_scaling serial baseline. O(N^2 log N); do not use in new
/// code.
Result<std::vector<geom::Polygon>> VoronoiCellsReference(
    const std::vector<geom::Point>& sites, const geom::BBox& service_area);

/// Convenience wrapper: builds the cells and stitches them into a
/// Subdivision whose region i answers nearest-neighbor queries for site i.
/// Both stages run on options.num_threads threads.
Result<Subdivision> BuildVoronoiSubdivision(
    const std::vector<geom::Point>& sites, const geom::BBox& service_area);
Result<Subdivision> BuildVoronoiSubdivision(
    const std::vector<geom::Point>& sites, const geom::BBox& service_area,
    const VoronoiOptions& options);

}  // namespace dtree::sub

#endif  // DTREE_SUBDIVISION_VORONOI_H_
