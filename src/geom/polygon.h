// Simple polygons and polylines.
//
// A Polygon is a simple (non-self-intersecting) closed ring of vertices.
// Data regions (Voronoi valid scopes), subdivision extents, and R*-tree
// shape-layer objects are all built on this type. A Polyline is an open or
// closed chain of vertices; D-tree partitions are sets of polylines.

#ifndef DTREE_GEOM_POLYGON_H_
#define DTREE_GEOM_POLYGON_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "geom/point.h"

namespace dtree::geom {

/// Open or closed chain of vertices.
///
/// For a closed polyline the first vertex is NOT repeated at the end;
/// `closed` records the implicit last edge back to the front.
struct Polyline {
  std::vector<Point> pts;
  bool closed = false;

  size_t NumVertices() const { return pts.size(); }
  /// Number of line segments spanned by the chain.
  size_t NumSegments() const {
    if (pts.size() < 2) return 0;
    return closed ? pts.size() : pts.size() - 1;
  }
  /// Endpoints of the i-th segment (wraps around when closed).
  void Segment(size_t i, Point* a, Point* b) const {
    *a = pts[i];
    *b = pts[(i + 1) % pts.size()];
  }
  BBox Bounds() const {
    BBox b;
    for (const Point& p : pts) b.Extend(p);
    return b;
  }
};

/// Simple polygon stored as a vertex ring (first vertex not repeated).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> ring) : ring_(std::move(ring)) {}

  const std::vector<Point>& ring() const { return ring_; }
  std::vector<Point>& mutable_ring() { return ring_; }
  size_t NumVertices() const { return ring_.size(); }
  bool empty() const { return ring_.size() < 3; }

  /// Endpoints of the i-th boundary edge (i in [0, NumVertices())).
  void Edge(size_t i, Point* a, Point* b) const {
    *a = ring_[i];
    *b = ring_[(i + 1) % ring_.size()];
  }

  /// Signed area: positive for counter-clockwise rings.
  double SignedArea() const;
  double Area() const;
  Point Centroid() const;
  BBox Bounds() const;

  bool IsCCW() const { return SignedArea() > 0.0; }
  /// Reverses the ring if it is clockwise.
  void EnsureCCW();

  /// True when p is strictly inside or on the boundary. Uses ray crossing
  /// with the half-open rule plus an explicit boundary check, so points on
  /// edges are reported as contained regardless of crossing parity.
  ///
  /// Boundary semantics: this test is *inclusive*, so in a tiling (Voronoi
  /// cells) a point exactly on a shared edge is contained by BOTH adjacent
  /// cells. Use ContainsHalfOpen when exactly one cell may claim the point.
  bool Contains(const Point& p) const;

  /// Pure half-open ray-crossing parity, with no boundary pre-check. In a
  /// polygon tiling this assigns every point — including points exactly on
  /// shared edges and vertices — to exactly one cell, deterministically:
  /// for two cells sharing edge e, RayRightCrossesSegment's half-open rule
  /// (an endpoint at the ray height counts only as the lower endpoint)
  /// makes exactly one of the two parities odd on e. This is the tie-break
  /// the client region cache relies on so a cached-cell lookup can never
  /// resolve a boundary point to a different cell than a cold probe.
  bool ContainsHalfOpen(const Point& p) const;

  /// True when p lies on the boundary within `eps`.
  bool OnBoundary(const Point& p, double eps = kGeomEps) const;

  /// Distance from p to the nearest boundary edge.
  double DistanceToBoundary(const Point& p) const;

  /// True when no two non-adjacent edges properly intersect and no vertex
  /// repeats. O(n^2); intended for tests and validation, not hot paths.
  bool IsSimple() const;

  /// True when every vertex turns the same way (allows collinear runs).
  bool IsConvex() const;

  /// A point guaranteed to be strictly inside the polygon (centroid when
  /// the polygon is convex; otherwise an interior midpoint found by
  /// scanline sampling). Returns false for degenerate polygons.
  bool InteriorPoint(Point* out) const;

 private:
  std::vector<Point> ring_;
};

/// Containment test over a vertex ring stored structure-of-arrays
/// (vertex i is (xs[i], ys[i]); the ring closes implicitly, first vertex
/// not repeated). Bit-identical to Polygon::Contains on the same ring —
/// boundary check first, then ray-crossing parity — but runs over
/// contiguous coordinate arrays, which is what the flat-arena probe
/// engines store instead of materialized Polygon objects.
bool PointInRing(const double* xs, const double* ys, size_t n,
                 const Point& p);

/// SoA twin of Polygon::ContainsHalfOpen: pure crossing parity, no boundary
/// pre-check, bit-identical to ContainsHalfOpen on the same ring. Partitions
/// a tiling uniquely (see ContainsHalfOpen).
bool RingContainsHalfOpen(const double* xs, const double* ys, size_t n,
                          const Point& p);

/// Bit-identical to Polygon::DistanceToBoundary over the same SoA ring.
double RingDistanceToBoundary(const double* xs, const double* ys, size_t n,
                              const Point& p);

/// Clips `poly` by the half-plane {p : a*p.x + b*p.y + c <= 0} using
/// Sutherland-Hodgman. The input must be convex for the output to be a
/// correct single polygon (the Voronoi builder only ever clips convex
/// cells). Returns an empty polygon when nothing remains.
Polygon ClipHalfPlane(const Polygon& poly, double a, double b, double c);

/// The same clip of a bare vertex ring into `*out`, which is overwritten
/// and must not alias `ring`; `*out` is left empty when nothing remains.
/// A caller that reuses `*out` clips without allocating once it has grown.
void ClipHalfPlane(std::span<const Point> ring, double a, double b, double c,
                   std::vector<Point>* out);

/// Clips an arbitrary simple polygon to the vertical band lo <= x <= hi and
/// returns the remaining area: two half-plane clips, whose output ring may
/// hold zero-width bridges along the band's lines for a non-convex input
/// but whose signed area is still the intersection's.
double AreaInVerticalBand(const Polygon& poly, double lo, double hi);

/// Same for the horizontal band lo <= y <= hi.
double AreaInHorizontalBand(const Polygon& poly, double lo, double hi);

/// The band areas over a bare vertex ring, bit-identical to the Polygon
/// forms: the first clip goes to `buffers->first` and the second to
/// `buffers->second`, so reused buffers make the call allocation-free.
struct ClipBuffers {
  std::vector<Point> first;
  std::vector<Point> second;
};
double AreaInVerticalBand(std::span<const Point> ring, double lo, double hi,
                          ClipBuffers* buffers);
double AreaInHorizontalBand(std::span<const Point> ring, double lo, double hi,
                            ClipBuffers* buffers);

}  // namespace dtree::geom

#endif  // DTREE_GEOM_POLYGON_H_
