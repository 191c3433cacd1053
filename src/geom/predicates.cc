#include "geom/predicates.h"

#include <algorithm>
#include <cmath>

namespace dtree::geom {

int Orient(const Point& a, const Point& b, const Point& c, double eps) {
  const double v = OrientValue(a, b, c);
  // Scale the tolerance by the magnitude of the inputs so the predicate
  // behaves consistently across coordinate ranges.
  const double scale =
      std::max({std::abs(b.x - a.x), std::abs(b.y - a.y),
                std::abs(c.x - a.x), std::abs(c.y - a.y), 1.0});
  const double tol = eps * scale * scale;
  if (v > tol) return 1;
  if (v < -tol) return -1;
  return 0;
}

bool OnSegment(const Point& a, const Point& b, const Point& p, double eps) {
  return DistanceToSegment(a, b, p) <= eps;
}

double DistanceToSegment(const Point& a, const Point& b, const Point& p) {
  const Point ab = b - a;
  const double len2 = Dot(ab, ab);
  if (len2 == 0.0) return Distance(a, p);
  double t = Dot(p - a, ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  const Point proj = a + ab * t;
  return Distance(proj, p);
}

bool SegmentsProperlyIntersect(const Point& a, const Point& b, const Point& c,
                               const Point& d) {
  const int o1 = Orient(a, b, c);
  const int o2 = Orient(a, b, d);
  const int o3 = Orient(c, d, a);
  const int o4 = Orient(c, d, b);
  return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4;
}

}  // namespace dtree::geom
