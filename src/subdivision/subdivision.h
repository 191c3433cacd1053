// Planar subdivision: a set of polygonal data regions tiling a rectangular
// service area.
//
// This is the input shared by every index structure in the library. Regions
// are stored over a shared vertex pool so that borders between adjacent
// regions match edge-for-edge — a requirement for the D-tree's
// union-boundary (extent) computation and for building a consistent
// triangulation for Kirkpatrick's hierarchy.

#ifndef DTREE_SUBDIVISION_SUBDIVISION_H_
#define DTREE_SUBDIVISION_SUBDIVISION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "geom/point.h"
#include "geom/polygon.h"

namespace dtree::sub {

/// A subdivision of `service_area` into N polygonal data regions.
///
/// Region i corresponds to data instance i (Definition 1 of the paper:
/// regions are disjoint and their union is the service area).
class Subdivision {
 public:
  Subdivision() = default;

  /// Builds a subdivision from raw polygons, snapping vertices within
  /// geom::kMergeEps to a shared pool and splitting edges at T-junctions
  /// so neighboring borders match exactly.
  ///
  /// Fails with InvalidArgument when fewer than one polygon is supplied or
  /// a polygon is degenerate.
  static Result<Subdivision> FromPolygons(
      const geom::BBox& service_area,
      const std::vector<geom::Polygon>& polygons);

  int NumRegions() const { return static_cast<int>(rings_.size()); }
  const geom::BBox& service_area() const { return service_area_; }
  const std::vector<geom::Point>& vertices() const { return vertices_; }

  /// Vertex-id ring (CCW) of region i.
  const std::vector<int>& Ring(int i) const { return rings_[i]; }

  /// Materializes region i as a Polygon (copies vertices).
  geom::Polygon RegionPolygon(int i) const;

  /// Bounding box of region i (precomputed).
  const geom::BBox& RegionBounds(int i) const { return bounds_[i]; }

  /// Twin-table values beside region ids: an edge on the service-area
  /// border (no region across it), and an edge whose undirected segment
  /// is not one edge of each of two regions in opposite directions (a
  /// directed edge repeated, or a border shared by three or more rings;
  /// an unstitched subdivision).
  static constexpr int kBorderEdge = -1;
  static constexpr int kUnstitchedEdge = -2;

  /// Edge twins of region i: entry k names the region across directed
  /// ring edge k (Ring(i)[k] to Ring(i)[k+1], wrapping), or kBorderEdge /
  /// kUnstitchedEdge. Built once by FromPolygons.
  std::span<const int> EdgeTwins(int i) const {
    return {edge_twin_.data() + ring_offset_[i], rings_[i].size()};
  }

  /// Structural validation: rings are CCW with >= 3 vertices, region areas
  /// sum to the service area (within 0.1%), every region lies inside the
  /// service area, and every edge is either shared (reversed) with exactly
  /// one other region or lies on the service-area boundary.
  Status Validate() const;

  /// Distance from p to the nearest region border (used by tests to skip
  /// query points whose answer is numerically ambiguous, and by the
  /// experiment oracle on every mismatching query). Grid-accelerated:
  /// border edges are bucketed into a uniform grid at construction and
  /// looked up by expanding rings around p's cell; points outside the
  /// grid's extent fall back to the full edge scan.
  double DistanceToNearestBorder(const geom::Point& p) const;

  /// Brute-force reference: every edge of every region. Public so property
  /// tests can pit the grid-accelerated path against it.
  double BorderDistanceFullScan(const geom::Point& p) const;

  /// Border-grid introspection for property tests (generating query points
  /// aligned exactly to grid-cell boundaries). A dimension of 0 means no
  /// grid was built and DistanceToNearestBorder always full-scans.
  int border_grid_dim() const { return border_grid_dim_; }
  const geom::BBox& border_grid_box() const { return border_grid_box_; }
  double border_cell_w() const { return border_cell_w_; }
  double border_cell_h() const { return border_cell_h_; }

 private:
  /// Collects unique undirected border edges, buckets them into the
  /// uniform grid used by DistanceToNearestBorder, and fills the edge-twin
  /// table in the same pass.
  void BuildBorderGrid();

  geom::BBox service_area_;
  std::vector<geom::Point> vertices_;
  std::vector<std::vector<int>> rings_;
  std::vector<geom::BBox> bounds_;

  /// Edge-twin table, flat: region i's twins sit at
  /// edge_twin_[ring_offset_[i] .. ring_offset_[i] + Ring(i).size()).
  std::vector<int> ring_offset_;
  std::vector<int> edge_twin_;

  /// Border-distance acceleration: unique undirected edges (vertex-id
  /// pairs) bucketed into a uniform grid over `border_grid_box_`. Built by
  /// FromPolygons; a default-constructed Subdivision has no grid
  /// (border_grid_dim_ == 0) and uses the full scan.
  std::vector<std::pair<int, int>> border_edges_;
  geom::BBox border_grid_box_;
  int border_grid_dim_ = 0;
  double border_cell_w_ = 1.0, border_cell_h_ = 1.0;
  std::vector<std::vector<int>> border_cells_;  ///< edge ids per grid cell
};

/// Grid-accelerated brute-force point locator over a Subdivision. Serves as
/// ground truth for every index structure and as the labeling oracle for
/// trapezoids / triangles at build time.
class PointLocator {
 public:
  explicit PointLocator(const Subdivision& sub);

  /// Region containing p. Points outside every region (possible only
  /// through floating-point gaps or p outside the service area) resolve to
  /// the region with the nearest boundary. Returns -1 only for an empty
  /// subdivision.
  int Locate(const geom::Point& p) const;

 private:
  const Subdivision& sub_;
  std::vector<geom::Polygon> polys_;
  int grid_dim_ = 1;
  double cell_w_ = 1.0, cell_h_ = 1.0;
  std::vector<std::vector<int>> cells_;  // region ids per grid cell
};

}  // namespace dtree::sub

#endif  // DTREE_SUBDIVISION_SUBDIVISION_H_
