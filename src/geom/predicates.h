// Planar geometric predicates.
//
// The kernel works in double precision; input coordinates are stitched to a
// tolerance grid before the predicates are used for structural decisions
// (see subdivision/stitch.h), which keeps plain floating-point evaluation
// reliable for the data scales this library targets.

#ifndef DTREE_GEOM_PREDICATES_H_
#define DTREE_GEOM_PREDICATES_H_

#include "geom/point.h"

namespace dtree::geom {

/// Sign of the signed area of triangle (a, b, c):
/// +1 when c lies to the left of directed line a->b (counter-clockwise),
/// -1 when to the right, 0 when collinear within tolerance.
int Orient(const Point& a, const Point& b, const Point& c,
           double eps = kGeomEps);

/// Raw twice-signed-area value (positive = CCW).
inline double OrientValue(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// True when p lies on the closed segment [a, b] within tolerance.
bool OnSegment(const Point& a, const Point& b, const Point& p,
               double eps = kGeomEps);

/// Euclidean distance from p to the closed segment [a, b].
double DistanceToSegment(const Point& a, const Point& b, const Point& p);

/// True when the open interiors of segments [a,b] and [c,d] intersect
/// (shared endpoints do not count). Used by subdivision validation.
bool SegmentsProperlyIntersect(const Point& a, const Point& b, const Point& c,
                               const Point& d);

/// Does a horizontal ray from p toward +x cross segment [a, b]?
/// Uses the half-open rule (an endpoint exactly at p.y counts only when it
/// is the *lower* endpoint), so crossing counts are consistent for rays
/// passing through shared vertices of a polyline. Inline: the D-tree's
/// descent (dtree/arena.h) runs it per segment of a node's chains, and its
/// wire decoder must compute the same bits (division-based intercept,
/// strict comparisons).
inline bool RayRightCrossesSegment(const Point& p, const Point& a,
                                   const Point& b) {
  // Half-open in y: the segment is crossed iff exactly one endpoint is
  // strictly above p.y. This makes a ray through a shared polyline vertex
  // count the two incident segments once in total (when the polyline
  // actually crosses) or zero/two times (when it only touches).
  if ((a.y > p.y) == (b.y > p.y)) return false;
  // x-coordinate where the segment meets the horizontal line y = p.y.
  const double t = (p.y - a.y) / (b.y - a.y);
  const double x_int = a.x + t * (b.x - a.x);
  return x_int > p.x;
}

/// Does a vertical ray from p toward -y cross segment [a, b]?
/// Half-open rule on x (an endpoint exactly at p.x counts only when it is
/// the *left* endpoint).
inline bool RayDownCrossesSegment(const Point& p, const Point& a,
                                  const Point& b) {
  if ((a.x > p.x) == (b.x > p.x)) return false;
  const double t = (p.x - a.x) / (b.x - a.x);
  const double y_int = a.y + t * (b.y - a.y);
  return y_int < p.y;
}

}  // namespace dtree::geom

#endif  // DTREE_GEOM_PREDICATES_H_
