// Shared helpers for the test suite.

#ifndef DTREE_TESTS_TEST_UTIL_H_
#define DTREE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "broadcast/packet_buffer.h"
#include "common/rng.h"
#include "geom/point.h"
#include "subdivision/subdivision.h"
#include "subdivision/voronoi.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::test {

/// Fails the current test when the status is not OK.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const ::dtree::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const ::dtree::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

/// Builds a Voronoi subdivision over n uniform points; aborts the test on
/// failure.
inline sub::Subdivision RandomVoronoi(int n, uint64_t seed) {
  Rng rng(seed);
  const geom::BBox area = workload::DefaultServiceArea();
  auto pts = workload::UniformPoints(n, area, &rng);
  auto sub_r = sub::BuildVoronoiSubdivision(pts, area);
  EXPECT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  return std::move(sub_r).value();
}

/// Builds a clustered Voronoi subdivision (stresses elongated cells).
inline sub::Subdivision ClusteredVoronoi(int n, uint64_t seed) {
  Rng rng(seed);
  const geom::BBox area = workload::DefaultServiceArea();
  auto pts = workload::ClusteredPoints(n, area, std::max(2, n / 20), 0.04,
                                       &rng);
  auto sub_r = sub::BuildVoronoiSubdivision(pts, area);
  EXPECT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  return std::move(sub_r).value();
}

/// A query point far enough from every region border that all index
/// structures must agree on its answer. Draws until one is found.
inline geom::Point UnambiguousQueryPoint(const sub::Subdivision& sub,
                                         Rng* rng,
                                         double min_border_dist = 1e-4) {
  const geom::BBox& a = sub.service_area();
  for (;;) {
    geom::Point p{rng->Uniform(a.min_x, a.max_x),
                  rng->Uniform(a.min_y, a.max_y)};
    if (sub.DistanceToNearestBorder(p) > min_border_dist) return p;
  }
}

/// A copy of the first `n` packets of `packets`: a truncated stream.
inline bcast::PacketBuffer FirstPackets(const bcast::PacketBuffer& packets,
                                        size_t n) {
  bcast::PacketBuffer out(n, packets.packet_bytes());
  std::copy_n(packets.data(), out.size_bytes(), out.data());
  return out;
}

}  // namespace dtree::test

#endif  // DTREE_TESTS_TEST_UTIL_H_
