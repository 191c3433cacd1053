#include "geom/polygon.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"
#include "geom/predicates.h"

namespace dtree::geom {

namespace {

/// Signed area of a vertex ring (first vertex not repeated).
double RingSignedArea(std::span<const Point> ring) {
  if (ring.size() < 3) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1) % ring.size()];
    s += Cross(a, b);
  }
  return s / 2.0;
}

}  // namespace

double Polygon::SignedArea() const { return RingSignedArea(ring_); }

double Polygon::Area() const { return std::abs(SignedArea()); }

Point Polygon::Centroid() const {
  if (ring_.empty()) return {};
  const double a = SignedArea();
  if (std::abs(a) < kGeomEps) {
    // Degenerate: fall back to the vertex average.
    Point c;
    for (const Point& p : ring_) c = c + p;
    return c * (1.0 / static_cast<double>(ring_.size()));
  }
  double cx = 0.0, cy = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& p = ring_[i];
    const Point& q = ring_[(i + 1) % ring_.size()];
    const double w = Cross(p, q);
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
  }
  return {cx / (6.0 * a), cy / (6.0 * a)};
}

BBox Polygon::Bounds() const {
  BBox b;
  for (const Point& p : ring_) b.Extend(p);
  return b;
}

void Polygon::EnsureCCW() {
  if (!ring_.empty() && SignedArea() < 0.0) {
    std::reverse(ring_.begin(), ring_.end());
  }
}

bool Polygon::Contains(const Point& p) const {
  if (ring_.size() < 3) return false;
  if (OnBoundary(p)) return true;
  int crossings = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if (RayRightCrossesSegment(p, a, b)) ++crossings;
  }
  return (crossings % 2) == 1;
}

bool Polygon::ContainsHalfOpen(const Point& p) const {
  if (ring_.size() < 3) return false;
  int crossings = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if (RayRightCrossesSegment(p, a, b)) ++crossings;
  }
  return (crossings % 2) == 1;
}

bool Polygon::OnBoundary(const Point& p, double eps) const {
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if (DistanceToSegment(a, b, p) <= eps) return true;
  }
  return false;
}

double Polygon::DistanceToBoundary(const Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    best = std::min(best, DistanceToSegment(a, b, p));
  }
  return best;
}

bool PointInRing(const double* xs, const double* ys, size_t n,
                 const Point& p) {
  if (n < 3) return false;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    if (DistanceToSegment({xs[i], ys[i]}, {xs[j], ys[j]}, p) <= kGeomEps) {
      return true;
    }
  }
  int crossings = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    if (RayRightCrossesSegment(p, {xs[i], ys[i]}, {xs[j], ys[j]})) {
      ++crossings;
    }
  }
  return (crossings % 2) == 1;
}

bool RingContainsHalfOpen(const double* xs, const double* ys, size_t n,
                          const Point& p) {
  if (n < 3) return false;
  int crossings = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    if (RayRightCrossesSegment(p, {xs[i], ys[i]}, {xs[j], ys[j]})) {
      ++crossings;
    }
  }
  return (crossings % 2) == 1;
}

double RingDistanceToBoundary(const double* xs, const double* ys, size_t n,
                              const Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    best = std::min(best, DistanceToSegment({xs[i], ys[i]}, {xs[j], ys[j]}, p));
  }
  return best;
}

bool Polygon::IsSimple() const {
  const size_t n = ring_.size();
  if (n < 3) return false;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (NearlyEqual(ring_[i], ring_[j], kGeomEps)) return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Point a, b;
    Edge(i, &a, &b);
    for (size_t j = i + 1; j < n; ++j) {
      // Skip adjacent edges (they legitimately share a vertex).
      if (j == i || (j + 1) % n == i || (i + 1) % n == j) continue;
      Point c, d;
      Edge(j, &c, &d);
      if (SegmentsProperlyIntersect(a, b, c, d)) return false;
    }
  }
  return true;
}

bool Polygon::IsConvex() const {
  const size_t n = ring_.size();
  if (n < 3) return false;
  int sign = 0;
  for (size_t i = 0; i < n; ++i) {
    const int o =
        Orient(ring_[i], ring_[(i + 1) % n], ring_[(i + 2) % n]);
    if (o == 0) continue;
    if (sign == 0) {
      sign = o;
    } else if (o != sign) {
      return false;
    }
  }
  return true;
}

bool Polygon::InteriorPoint(Point* out) const {
  if (ring_.size() < 3 || Area() < kGeomEps) return false;
  if (IsConvex()) {
    *out = Centroid();
    return true;
  }
  // Scanline at a y strictly between two distinct vertex levels: collect
  // edge crossings, and take the midpoint of the first in/out pair.
  std::set<double> ys;
  for (const Point& p : ring_) ys.insert(p.y);
  DTREE_CHECK(ys.size() >= 2);
  // Pick the widest gap between consecutive vertex levels for stability.
  double best_lo = 0.0, best_gap = -1.0;
  for (auto it = ys.begin(); std::next(it) != ys.end(); ++it) {
    const double gap = *std::next(it) - *it;
    if (gap > best_gap) {
      best_gap = gap;
      best_lo = *it;
    }
  }
  const double scan_y = best_lo + best_gap / 2.0;
  std::vector<double> xs;
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if ((a.y > scan_y) == (b.y > scan_y)) continue;
    const double t = (scan_y - a.y) / (b.y - a.y);
    xs.push_back(a.x + t * (b.x - a.x));
  }
  if (xs.size() < 2) return false;
  std::sort(xs.begin(), xs.end());
  *out = {(xs[0] + xs[1]) / 2.0, scan_y};
  return true;
}

Polygon ClipHalfPlane(const Polygon& poly, double a, double b, double c) {
  std::vector<Point> out;
  ClipHalfPlane(poly.ring(), a, b, c, &out);
  return Polygon(std::move(out));
}

void ClipHalfPlane(std::span<const Point> ring, double a, double b, double c,
                   std::vector<Point>* out) {
  out->clear();
  const size_t n = ring.size();
  if (n < 3) return;
  // Normalize so `side` is a signed distance; keeps tolerances meaningful.
  const double norm = std::hypot(a, b);
  if (norm < kGeomEps) {  // Degenerate line: no constraint.
    out->assign(ring.begin(), ring.end());
    return;
  }
  a /= norm;
  b /= norm;
  c /= norm;
  constexpr double kOnLine = 1e-12;

  auto side = [&](const Point& p) { return a * p.x + b * p.y + c; };

  out->reserve(n + 2);
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = ring[i];
    const Point& nxt = ring[(i + 1) % n];
    const double sc = side(cur);
    const double sn = side(nxt);
    const bool cur_in = sc <= kOnLine;
    const bool nxt_in = sn <= kOnLine;
    if (cur_in) out->push_back(cur);
    if (cur_in != nxt_in) {
      const double t = sc / (sc - sn);
      out->push_back(
          {cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)});
    }
  }
  // Drop consecutive duplicates introduced by near-on-line vertices, in
  // place: each point is compared with the last one kept.
  std::vector<Point>& pts = *out;
  size_t kept = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (kept == 0 || !NearlyEqual(pts[kept - 1], pts[i], kGeomEps)) {
      pts[kept++] = pts[i];
    }
  }
  pts.resize(kept);
  while (pts.size() > 1 && NearlyEqual(pts.front(), pts.back(), kGeomEps)) {
    pts.pop_back();
  }
  if (pts.size() < 3) pts.clear();
}

namespace {

double ClippedAbsArea(std::span<const Point> ring, double a1, double b1,
                      double c1, double a2, double b2, double c2,
                      ClipBuffers* buffers) {
  // Two successive Sutherland-Hodgman passes. For non-convex subjects the
  // output ring may contain zero-width bridges along the clip lines, but
  // its signed area still equals the true intersection area, which is all
  // this helper is used for.
  ClipHalfPlane(ring, a1, b1, c1, &buffers->first);
  if (buffers->first.empty()) return 0.0;
  ClipHalfPlane(buffers->first, a2, b2, c2, &buffers->second);
  return std::abs(RingSignedArea(buffers->second));
}

}  // namespace

double AreaInVerticalBand(std::span<const Point> ring, double lo, double hi,
                          ClipBuffers* buffers) {
  if (hi <= lo) return 0.0;
  // x >= lo  <=>  -x + lo <= 0 ; x <= hi  <=>  x - hi <= 0.
  return ClippedAbsArea(ring, -1.0, 0.0, lo, 1.0, 0.0, -hi, buffers);
}

double AreaInHorizontalBand(std::span<const Point> ring, double lo, double hi,
                            ClipBuffers* buffers) {
  if (hi <= lo) return 0.0;
  return ClippedAbsArea(ring, 0.0, -1.0, lo, 0.0, 1.0, -hi, buffers);
}

double AreaInVerticalBand(const Polygon& poly, double lo, double hi) {
  ClipBuffers buffers;
  return AreaInVerticalBand(poly.ring(), lo, hi, &buffers);
}

double AreaInHorizontalBand(const Polygon& poly, double lo, double hi) {
  ClipBuffers buffers;
  return AreaInHorizontalBand(poly.ring(), lo, hi, &buffers);
}

}  // namespace dtree::geom
