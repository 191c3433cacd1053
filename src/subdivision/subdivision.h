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

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "subdivision/bucket_grid.h"

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
  /// so neighboring borders match exactly. Vertex ids follow first-seen
  /// order over the polygons, each read counter-clockwise.
  ///
  /// The T-junction pass splits rings on `num_threads` threads (<= 0
  /// selects ThreadPool::DefaultThreads(); below 2048 polygons it runs on
  /// the caller). The result is bit-identical for every value.
  ///
  /// Fails with InvalidArgument when fewer than one polygon is supplied,
  /// the service area or a vertex is not finite, a vertex lies too far out
  /// for the snap grid (|v| above about 3.7e13), or a polygon is
  /// degenerate. Finite polygons outside the service area are accepted;
  /// Validate() reports them.
  static Result<Subdivision> FromPolygons(
      const geom::BBox& service_area,
      const std::vector<geom::Polygon>& polygons, int num_threads = 0);

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
  /// kUnstitchedEdge. Built once by FromPolygons: an undirected segment
  /// held by one ring edge is kBorderEdge, by two in opposite directions
  /// a pair of twins, and by anything else kUnstitchedEdge on every copy.
  std::span<const int> EdgeTwins(int i) const {
    return {edge_twin_.data() + ring_offset_[i], rings_[i].size()};
  }

  /// One undirected ring segment: its endpoint vertex ids in canonical
  /// (lo, hi) order, and the twin-table slot (ring_offset(r) + k, counted
  /// over regions in order and their ring edges in order) of its first
  /// directed copy.
  struct Segment {
    int lo;
    int hi;
    int first_slot;
  };

  /// Every undirected ring segment once, in ascending (lo, hi) order.
  /// Sorted by first_slot, the segments come in the order a walk over
  /// every region's ring edges first meets them.
  std::vector<Segment> Segments() const;

  /// Structural validation: rings are CCW with >= 3 vertices, region areas
  /// sum to the service area (within 0.1%), every region lies inside the
  /// service area, and every edge is either shared (reversed) with exactly
  /// one other region or lies on the service-area boundary. Edges are
  /// checked through the twin table in (region, slot) order, and the first
  /// defect is reported.
  Status Validate() const;

  /// Distance from p to the nearest region border (used by tests to skip
  /// query points whose answer is numerically ambiguous, and by the
  /// experiment oracle on every mismatching query). Grid-accelerated:
  /// Segments() are bucketed into a BucketGrid, built by the first call
  /// that needs it (safe to race from several threads), and looked up by
  /// expanding rings around p's bucket; points outside the grid's box fall
  /// back to the full edge scan.
  double DistanceToNearestBorder(const geom::Point& p) const;

  /// Brute-force reference: every edge of every region. Public so property
  /// tests can pit the grid-accelerated path against it.
  double BorderDistanceFullScan(const geom::Point& p) const;

  /// Border-grid introspection for property tests (generating query points
  /// aligned exactly to grid-cell boundaries). A dimension of 0 means the
  /// subdivision has no edges and DistanceToNearestBorder always
  /// full-scans. Each accessor builds the grid if no call has yet.
  int border_grid_dim() const { return border_grid().grid.dim(); }
  const geom::BBox& border_grid_box() const {
    return border_grid().grid.box();
  }
  double border_cell_w() const { return border_grid().grid.cell_w(); }
  double border_cell_h() const { return border_grid().grid.cell_h(); }

 private:
  /// Border-distance acceleration: Segments(), and a grid over the service
  /// area and every vertex (floor(sqrt(#segments)) buckets a side, at most
  /// 1024) filing each segment's index under the buckets its bounding box
  /// touches.
  struct BorderGrid {
    std::vector<Segment> segments;
    BucketGrid grid;
  };

  /// The border grid, built from the rings by the first call that reads
  /// it, exactly once: the first caller to take `mu` builds and then sets
  /// `built`. Only oracles read the grid, so an epoch commit never builds
  /// it. A copy carries a built grid along and a move takes it, leaving
  /// the source unbuilt, so Subdivision stays a value type.
  struct LazyBorderGrid {
    LazyBorderGrid() = default;
    LazyBorderGrid(const LazyBorderGrid& other) { *this = other; }
    LazyBorderGrid(LazyBorderGrid&& other) noexcept {
      *this = std::move(other);
    }
    LazyBorderGrid& operator=(const LazyBorderGrid& other);
    LazyBorderGrid& operator=(LazyBorderGrid&& other) noexcept;

    std::mutex mu;
    std::atomic<bool> built{false};
    BorderGrid grid;
  };

  const BorderGrid& border_grid() const;
  BorderGrid BuildBorderGrid() const;

  geom::BBox service_area_;
  std::vector<geom::Point> vertices_;
  std::vector<std::vector<int>> rings_;
  std::vector<geom::BBox> bounds_;

  /// Edge-twin table, flat: region i's twins sit at
  /// edge_twin_[ring_offset_[i] .. ring_offset_[i] + Ring(i).size()).
  std::vector<int> ring_offset_;
  std::vector<int> edge_twin_;

  mutable LazyBorderGrid border_grid_;
};

/// Grid-accelerated brute-force point locator over a Subdivision. Serves as
/// ground truth for every index structure and as the labeling oracle for
/// trapezoids / triangles at build time.
class PointLocator {
 public:
  explicit PointLocator(const Subdivision& sub);

  /// Region containing p. A finite p outside every region (possible only
  /// through floating-point gaps or p outside the service area) resolves
  /// to the region with the nearest boundary, or, so far out that every
  /// boundary distance overflows to infinity, to the lowest region filed
  /// under p's bucket (region 0 if none is). Returns -1 for an empty
  /// subdivision and for a p with a NaN or infinite coordinate.
  int Locate(const geom::Point& p) const;

 private:
  const Subdivision& sub_;
  std::vector<geom::Polygon> polys_;
  /// Region ids under the buckets their bounds touch: floor(sqrt(N))
  /// buckets a side over the service area.
  BucketGrid grid_;
};

}  // namespace dtree::sub

#endif  // DTREE_SUBDIVISION_SUBDIVISION_H_
