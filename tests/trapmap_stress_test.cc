// Stress suite for the randomized-incremental trapezoidal map: many
// insertion orders, degenerate inputs, and oracle cross-checks. The trap
// map has the most delicate degeneracy handling in the repository (shared
// endpoints, equal x-coordinates, vertical and collinear segments), so it
// gets its own matrix.

#include "baselines/trapmap/trapmap.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::baselines {
namespace {

using geom::Point;

class TrapMapSeedMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(TrapMapSeedMatrixTest, InvariantsAndOracleAcrossInsertionOrders) {
  const auto [n, seed, clustered] = GetParam();
  const sub::Subdivision sub =
      clustered ? test::ClusteredVoronoi(n, 7000 + seed)
                : test::RandomVoronoi(n, 7000 + seed);
  const sub::PointLocator oracle(sub);
  TrapMap::Options o;
  o.packet_capacity = 64;
  o.seed = static_cast<uint64_t>(seed);  // shuffles the insertion order
  auto map_r = TrapMap::Build(sub, o);
  ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
  const TrapMap& map = map_r.value();
  ASSERT_OK(TrapMap::CheckInvariants(sub, o, 1500,
                                     static_cast<uint64_t>(seed) + 1));
  // Expected-linear size regardless of insertion order.
  EXPECT_LE(map.num_alive_trapezoids(), 3 * map.num_segments() + 8);
  EXPECT_LE(map.num_dag_nodes(), 20 * map.num_segments() + 8);
  Rng rng(static_cast<uint64_t>(seed) + 2);
  for (int q = 0; q < 300; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    ASSERT_EQ(map.Locate(p), oracle.Locate(p))
        << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TrapMapSeedMatrixTest,
    ::testing::Combine(::testing::Values(15, 60, 130),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()));

TEST(TrapMapStressTest, SingleRegionDegenerate) {
  std::vector<geom::Polygon> one{
      geom::Polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}})};
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 10, 10}, one);
  ASSERT_TRUE(sub_r.ok());
  TrapMap::Options o;
  o.packet_capacity = 64;
  auto map_r = TrapMap::Build(sub_r.value(), o);
  ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
  EXPECT_EQ(map_r.value().Locate({5, 5}), 0);
  auto trace = map_r.value().Probe({5, 5});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().region, 0);
}

TEST(TrapMapStressTest, TwoVerticalSlivers) {
  // Two tall, thin regions split by a perfectly vertical border — the
  // worst case for the x-comparison shear.
  std::vector<geom::Polygon> cells;
  cells.push_back(geom::Polygon({{0, 0}, {5, 0}, {5, 100}, {0, 100}}));
  cells.push_back(geom::Polygon({{5, 0}, {10, 0}, {10, 100}, {5, 100}}));
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 10, 100}, cells);
  ASSERT_TRUE(sub_r.ok());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TrapMap::Options o;
    o.packet_capacity = 64;
    o.seed = seed;
    auto map_r = TrapMap::Build(sub_r.value(), o);
    ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
    EXPECT_EQ(map_r.value().Locate({2.5, 50}), 0) << seed;
    EXPECT_EQ(map_r.value().Locate({7.5, 50}), 1) << seed;
    EXPECT_EQ(map_r.value().Locate({4.9, 99.5}), 0) << seed;
    EXPECT_EQ(map_r.value().Locate({5.1, 0.5}), 1) << seed;
  }
}

TEST(TrapMapStressTest, ManyCollinearBorderSegments) {
  // 1xK strip: the top and bottom borders are long chains of collinear
  // segments, all vertical interior walls share endpoints with them.
  std::vector<geom::Polygon> cells;
  const int k = 12;
  for (int i = 0; i < k; ++i) {
    const double x = i * 10.0;
    cells.push_back(
        geom::Polygon({{x, 0}, {x + 10, 0}, {x + 10, 10}, {x, 10}}));
  }
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 10.0 * k, 10}, cells);
  ASSERT_TRUE(sub_r.ok());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TrapMap::Options o;
    o.packet_capacity = 64;
    o.seed = seed;
    auto map_r = TrapMap::Build(sub_r.value(), o);
    ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
    ASSERT_OK(TrapMap::CheckInvariants(sub_r.value(), o, 1000, seed));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(map_r.value().Locate({i * 10.0 + 5.0, 5.0}), i) << seed;
    }
  }
}

TEST(TrapMapStressTest, ProbeCostIsLogarithmicish) {
  // Tuning should grow slowly with N: compare mean DAG path packets at
  // N=20 vs N=160 — far less than the 8x size ratio.
  double mean_small = 0.0, mean_big = 0.0;
  for (int round = 0; round < 2; ++round) {
    const int n = round == 0 ? 20 : 160;
    const sub::Subdivision sub = test::RandomVoronoi(n, 8800 + n);
    TrapMap::Options o;
    o.packet_capacity = 64;
    auto map_r = TrapMap::Build(sub, o);
    ASSERT_TRUE(map_r.ok());
    Rng rng(9);
    double total = 0.0;
    for (int q = 0; q < 400; ++q) {
      const Point p = test::UnambiguousQueryPoint(sub, &rng);
      auto t = map_r.value().Probe(p);
      ASSERT_TRUE(t.ok());
      total += static_cast<double>(t.value().packets.size());
    }
    (round == 0 ? mean_small : mean_big) = total / 400.0;
  }
  EXPECT_LT(mean_big, mean_small * 3.0);
}

}  // namespace
}  // namespace dtree::baselines
