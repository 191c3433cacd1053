// End-to-end integration sweeps: every index structure runs the full
// experiment pipeline (build -> page -> probe -> channel simulation ->
// metrics) with the brute-force oracle enabled, across datasets, sizes,
// seeds, and packet capacities. This is the test that fails when any part
// of the stack disagrees with any other.

#include <ostream>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/experiment.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

struct Cell {
  int n;
  int capacity;
  uint64_t seed;
  bool clustered;
};

// The test names carry n, capacity and layout; the printed parameter adds
// the seed. Without this gtest prints the struct's raw bytes, padding
// included, and the ctest names would differ from build to build.
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << "seed " << cell.seed;
}

class EndToEndTest : public ::testing::TestWithParam<Cell> {};

TEST_P(EndToEndTest, AllIndexesThroughTheFullPipeline) {
  const Cell cell = GetParam();
  const sub::Subdivision sub =
      cell.clustered ? test::ClusteredVoronoi(cell.n, cell.seed)
                     : test::RandomVoronoi(cell.n, cell.seed);
  ASSERT_TRUE(sub.Validate().ok());
  const sub::PointLocator oracle(sub);

  bcast::ExperimentOptions opt;
  opt.packet_capacity = cell.capacity;
  opt.num_queries = 1500;
  opt.seed = cell.seed + 1;

  std::vector<bcast::ExperimentResult> results;

  {
    core::DTree::Options o;
    o.packet_capacity = cell.capacity;
    auto index = core::DTree::Build(sub, o);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto res = bcast::RunExperiment(index.value(), sub, &oracle, opt);
    ASSERT_TRUE(res.ok()) << "d-tree: " << res.status().ToString();
    results.push_back(std::move(res).value());
  }
  {
    baselines::RStarTree::Options o;
    o.packet_capacity = cell.capacity;
    auto index = baselines::RStarTree::Build(sub, o);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto res = bcast::RunExperiment(index.value(), sub, &oracle, opt);
    ASSERT_TRUE(res.ok()) << "r*-tree: " << res.status().ToString();
    results.push_back(std::move(res).value());
  }
  {
    baselines::TrapMap::Options o;
    o.packet_capacity = cell.capacity;
    auto index = baselines::TrapMap::Build(sub, o);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto res = bcast::RunExperiment(index.value(), sub, &oracle, opt);
    ASSERT_TRUE(res.ok()) << "trap-tree: " << res.status().ToString();
    results.push_back(std::move(res).value());
  }
  {
    baselines::TrianTree::Options o;
    o.packet_capacity = cell.capacity;
    auto index = baselines::TrianTree::Build(sub, o);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto res = bcast::RunExperiment(index.value(), sub, &oracle, opt);
    ASSERT_TRUE(res.ok()) << "trian-tree: " << res.status().ToString();
    results.push_back(std::move(res).value());
  }

  for (const auto& r : results) {
    // Physical sanity of every metric.
    EXPECT_GE(r.normalized_latency, 1.0) << r.index_name;
    EXPECT_LT(r.normalized_latency, 50.0) << r.index_name;
    EXPECT_GT(r.mean_tuning_index, 0.0) << r.index_name;
    EXPECT_GT(r.index_packets, 0) << r.index_name;
    EXPECT_LE(r.index_bytes,
              static_cast<size_t>(r.index_packets) * cell.capacity)
        << r.index_name;
    EXPECT_GT(r.indexing_efficiency, 0.0) << r.index_name;
    // Air indexing must beat listening by a wide margin.
    EXPECT_LT(r.mean_tuning_total, r.mean_tuning_noindex) << r.index_name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndTest,
    ::testing::Values(Cell{12, 64, 1001, false}, Cell{12, 512, 1002, true},
                      Cell{48, 128, 1003, false}, Cell{48, 2048, 1004, true},
                      Cell{140, 64, 1005, true},
                      Cell{140, 1024, 1006, false}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_cap";
      name += std::to_string(info.param.capacity);
      name += info.param.clustered ? "_clustered" : "_uniform";
      return name;
    });

/// Determinism: the whole pipeline is reproducible from the seed.
TEST(EndToEndTest, DeterministicFromSeed) {
  const sub::Subdivision sub = test::RandomVoronoi(40, 2024);
  core::DTree::Options o;
  o.packet_capacity = 128;
  auto index = core::DTree::Build(sub, o);
  ASSERT_TRUE(index.ok());
  bcast::ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 2000;
  opt.seed = 99;
  auto a = bcast::RunExperiment(index.value(), sub, nullptr, opt);
  auto b = bcast::RunExperiment(index.value(), sub, nullptr, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().mean_latency, b.value().mean_latency);
  EXPECT_DOUBLE_EQ(a.value().mean_tuning_index,
                   b.value().mean_tuning_index);
  opt.seed = 100;
  auto c = bcast::RunExperiment(index.value(), sub, nullptr, opt);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().mean_latency, c.value().mean_latency);
}

/// The paper's headline, as a regression test: on a mid-size workload the
/// D-tree's indexing efficiency beats every baseline.
TEST(EndToEndTest, DTreeWinsIndexingEfficiency) {
  const sub::Subdivision sub = test::ClusteredVoronoi(150, 2025);
  bcast::ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 8000;

  core::DTree::Options dopt;
  dopt.packet_capacity = 256;
  auto dtree = core::DTree::Build(sub, dopt);
  ASSERT_TRUE(dtree.ok());
  auto dres = bcast::RunExperiment(dtree.value(), sub, nullptr, opt);
  ASSERT_TRUE(dres.ok());

  baselines::RStarTree::Options ropt;
  ropt.packet_capacity = 256;
  auto rstar = baselines::RStarTree::Build(sub, ropt);
  ASSERT_TRUE(rstar.ok());
  auto rres = bcast::RunExperiment(rstar.value(), sub, nullptr, opt);
  ASSERT_TRUE(rres.ok());

  baselines::TrapMap::Options topt;
  topt.packet_capacity = 256;
  auto trap = baselines::TrapMap::Build(sub, topt);
  ASSERT_TRUE(trap.ok());
  auto tres = bcast::RunExperiment(trap.value(), sub, nullptr, opt);
  ASSERT_TRUE(tres.ok());

  baselines::TrianTree::Options kopt;
  kopt.packet_capacity = 256;
  auto trian = baselines::TrianTree::Build(sub, kopt);
  ASSERT_TRUE(trian.ok());
  auto kres = bcast::RunExperiment(trian.value(), sub, nullptr, opt);
  ASSERT_TRUE(kres.ok());

  EXPECT_GT(dres.value().indexing_efficiency,
            rres.value().indexing_efficiency);
  EXPECT_GT(dres.value().indexing_efficiency,
            tres.value().indexing_efficiency);
  EXPECT_GT(dres.value().indexing_efficiency,
            kres.value().indexing_efficiency);
}

}  // namespace
}  // namespace dtree
