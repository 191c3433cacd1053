// Determinism and sampler-edge-case coverage for the parallel experiment
// driver: the sharded, stream-seeded query loop must return bit-identical
// metrics for every thread count, QuerySampler must handle degenerate
// weight vectors exactly as documented, and the result equality the
// benches' thread-invariance checks rely on must see every field.

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  // Bit-identical, not approximately equal: shard merge order is fixed.
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.normalized_latency, b.normalized_latency);
  EXPECT_EQ(a.mean_tuning_index, b.mean_tuning_index);
  EXPECT_EQ(a.mean_tuning_total, b.mean_tuning_total);
  EXPECT_EQ(a.mean_tuning_noindex, b.mean_tuning_noindex);
  EXPECT_EQ(a.indexing_efficiency, b.indexing_efficiency);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.index_packets, b.index_packets);
  EXPECT_EQ(a.cycle_packets, b.cycle_packets);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.min_tuning_total, b.min_tuning_total);
  EXPECT_EQ(a.max_tuning_total, b.max_tuning_total);
}

/// The aggregate statistics must be internally consistent: every mean lies
/// within its exact [min, max] envelope, and the histograms agree with the
/// scalar aggregates they were accumulated alongside.
void ExpectConsistentDistributions(const ExperimentResult& r,
                                   int num_queries) {
  EXPECT_LE(r.min_latency, r.mean_latency);
  EXPECT_GE(r.max_latency, r.mean_latency);
  EXPECT_LE(r.min_tuning_total, r.mean_tuning_total);
  EXPECT_GE(r.max_tuning_total, r.mean_tuning_total);

  const Histogram* lat = r.metrics.FindHistogram(kLatencyHist);
  const Histogram* tun = r.metrics.FindHistogram(kTuningTotalHist);
  ASSERT_NE(lat, nullptr);
  ASSERT_NE(tun, nullptr);
  EXPECT_EQ(lat->TotalCount(), static_cast<uint64_t>(num_queries));
  EXPECT_EQ(tun->TotalCount(), static_cast<uint64_t>(num_queries));
  EXPECT_EQ(lat->Min(), r.min_latency);
  EXPECT_EQ(lat->Max(), r.max_latency);
  EXPECT_DOUBLE_EQ(lat->Mean(), r.mean_latency);
  EXPECT_EQ(tun->Min(), r.min_tuning_total);
  EXPECT_EQ(tun->Max(), r.max_tuning_total);
  EXPECT_DOUBLE_EQ(tun->Mean(), r.mean_tuning_total);
}

TEST(ParallelExperimentTest, ThreadCountDoesNotChangeResults) {
  const sub::Subdivision sub = test::RandomVoronoi(80, 404);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 20000;
  opt.seed = 7;
  opt.num_threads = 1;
  auto serial = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : {4, 8}) {
    opt.num_threads = threads;
    auto parallel = RunExperiment(tree.value(), sub, nullptr, opt);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdentical(serial.value(), parallel.value());
    ExpectConsistentDistributions(parallel.value(), opt.num_queries);
  }
}

TEST(ParallelExperimentTest, GoldenValuesUnchangedByObservabilityLayer) {
  // Regression pin: these exact doubles were produced by the driver BEFORE
  // the trace/metrics layer existed, for this precise configuration. With
  // tracing disabled (the default) the observability layer must not move a
  // single bit — histograms accumulate alongside the original sums, and
  // Simulate's trace hook is a null pointer. If this test fails, tracing
  // has leaked into the simulation (e.g. an RNG draw or a reordered sum).
  const sub::Subdivision sub = test::RandomVoronoi(80, 404);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 20000;
  opt.seed = 7;
  for (int threads : {1, 8}) {
    opt.num_threads = threads;
    auto res = RunExperiment(tree.value(), sub, nullptr, opt);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const ExperimentResult& r = res.value();
    EXPECT_EQ(r.mean_latency, 265.92563622764175);
    EXPECT_EQ(r.normalized_latency, 1.6620352264227609);
    EXPECT_EQ(r.mean_tuning_index, 4.1167499999999997);
    EXPECT_EQ(r.mean_tuning_total, 9.1167499999999997);
    EXPECT_EQ(r.mean_tuning_noindex, 162.98769999999999);
    EXPECT_EQ(r.indexing_efficiency, 1.4526318224732713);
    EXPECT_EQ(r.m, 4);
    EXPECT_EQ(r.index_packets, 21);
    EXPECT_EQ(r.cycle_packets, 404);
    ExpectConsistentDistributions(r, opt.num_queries);
  }
}

TEST(ParallelExperimentTest, DeterministicWithOracleAndWeights) {
  const sub::Subdivision sub = test::ClusteredVoronoi(50, 505);
  const sub::PointLocator oracle(sub);
  core::DTree::Options topt;
  topt.packet_capacity = 128;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  std::vector<double> weights(sub.NumRegions(), 1.0);
  for (size_t i = 0; i < weights.size(); i += 3) weights[i] = 5.0;

  ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 6000;
  opt.seed = 11;
  opt.distribution = QueryDistribution::kWeightedRegion;
  opt.region_weights = weights;
  opt.num_threads = 1;
  auto serial = RunExperiment(tree.value(), sub, &oracle, opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  opt.num_threads = 8;
  auto parallel = RunExperiment(tree.value(), sub, &oracle, opt);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdentical(serial.value(), parallel.value());
}

TEST(ParallelExperimentTest, SeedStillMatters) {
  const sub::Subdivision sub = test::RandomVoronoi(40, 606);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 5000;
  opt.num_threads = 4;
  opt.seed = 1;
  auto a = RunExperiment(tree.value(), sub, nullptr, opt);
  opt.seed = 2;
  auto b = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().mean_latency, b.value().mean_latency);
}

TEST(ParallelExperimentTest, FewerQueriesThanShardsStillDeterministic) {
  // num_queries below the internal shard count exercises the shard-count
  // clamp; results must still be thread-count independent.
  const sub::Subdivision sub = test::RandomVoronoi(20, 707);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 13;
  opt.seed = 3;
  opt.num_threads = 1;
  auto serial = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(serial.ok());
  opt.num_threads = 8;
  auto parallel = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial.value(), parallel.value());
}

TEST(ParallelExperimentTest, ZeroQueriesIsALegalDegenerateRun) {
  // Pinned behavior for the empty load: the run succeeds, layout fields
  // are filled, and every aggregate is exactly zero — no division by the
  // zero query count may surface as NaN. Negative counts stay rejected.
  const sub::Subdivision sub = test::RandomVoronoi(20, 909);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 0;
  for (int threads : {1, 8}) {
    opt.num_threads = threads;
    auto res = RunExperiment(tree.value(), sub, nullptr, opt);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const ExperimentResult& r = res.value();
    EXPECT_GT(r.cycle_packets, 0);
    EXPECT_GT(r.m, 0);
    EXPECT_EQ(r.mean_latency, 0.0);
    EXPECT_EQ(r.normalized_latency, 0.0);
    EXPECT_EQ(r.mean_tuning_index, 0.0);
    EXPECT_EQ(r.mean_tuning_total, 0.0);
    EXPECT_EQ(r.mean_tuning_noindex, 0.0);
    EXPECT_EQ(r.indexing_efficiency, 0.0);
    EXPECT_EQ(r.mean_retries, 0.0);
    EXPECT_EQ(r.mean_lost_packets, 0.0);
    EXPECT_EQ(r.mean_corrupted_packets, 0.0);
    EXPECT_EQ(r.min_latency, 0.0);
    EXPECT_EQ(r.max_latency, 0.0);
    EXPECT_EQ(r.min_tuning_total, 0.0);
    EXPECT_EQ(r.max_tuning_total, 0.0);
    EXPECT_EQ(r.unrecoverable_queries, 0);
    EXPECT_EQ(r.fallback_queries, 0);
    EXPECT_FALSE(std::isnan(r.mean_latency));
    const Histogram* lat = r.metrics.FindHistogram(kLatencyHist);
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->TotalCount(), 0u);
  }
  opt.num_queries = -1;
  EXPECT_FALSE(RunExperiment(tree.value(), sub, nullptr, opt).ok());
}

TEST(ParallelExperimentTest, AllUnrecoverableShardsAggregateSanely) {
  // Loss rate 1 with the fallback disabled makes every query burn its
  // whole retry budget: the pinned aggregation is
  // unrecoverable_queries == num_queries with finite (latency-until-
  // give-up) means, identical across thread counts.
  const sub::Subdivision sub = test::RandomVoronoi(20, 910);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 500;
  opt.seed = 21;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 1.0;
  opt.loss.seed = 6;
  opt.loss.max_retries = 2;
  opt.num_threads = 1;
  auto serial = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const ExperimentResult& r = serial.value();
  EXPECT_EQ(r.unrecoverable_queries, opt.num_queries);
  EXPECT_TRUE(std::isfinite(r.mean_latency));
  EXPECT_GT(r.mean_latency, 0.0);  // time until giving up still counts
  EXPECT_TRUE(std::isfinite(r.mean_tuning_noindex));
  EXPECT_GT(r.mean_tuning_noindex, 0.0);  // lossy baseline gave up too
  opt.num_threads = 8;
  auto parallel = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(serial.value(), parallel.value());
}

TEST(ParallelExperimentTest, ReportsQueriesAndLostPacketTotals) {
  // The fields RunExperiment now shares with the fleet: `queries` counts
  // every query, cache hits included, and the lost-read total equals the
  // sum its per-query histogram accumulated alongside.
  const sub::Subdivision sub = test::RandomVoronoi(60, 515);
  core::DTree::Options topt;
  topt.packet_capacity = 128;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 3000;
  opt.seed = 5;
  opt.num_threads = 4;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.1;
  opt.loss.seed = 9;
  auto res = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const ExperimentResult& r = res.value();
  EXPECT_EQ(r.queries, opt.num_queries);
  const Histogram* lost = r.metrics.FindHistogram(kLostPacketsHist);
  ASSERT_NE(lost, nullptr);
  EXPECT_GT(r.total_lost_packets, 0);
  EXPECT_EQ(static_cast<double>(r.total_lost_packets), lost->Sum());

  opt.mobility.enabled = true;
  opt.cache.enabled = true;
  auto cached = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_GT(cached.value().cache_hits, 0);
  EXPECT_EQ(cached.value().queries, opt.num_queries);
}

/// Two histograms with the same count, sum, min and max whose bucket
/// counts differ.
std::pair<Histogram, Histogram> BucketOnlyTwins() {
  std::pair<Histogram, Histogram> twins;
  for (double v : {1.0, 2.0, 3.0, 4.0}) twins.first.Add(v);
  for (double v : {1.0, 2.5, 2.5, 4.0}) twins.second.Add(v);
  return twins;
}

/// Defaulted equality reaches every layer of a result: a QueryStats
/// field, a field of the derived result, and one histogram's buckets.
template <typename R>
void ExpectEqualityComparesEveryLayer(const R& r, void (*bump_derived)(R*)) {
  R b = r;
  EXPECT_TRUE(b == r);
  b.total_retries += 1;
  EXPECT_FALSE(b == r);
  b = r;
  bump_derived(&b);
  EXPECT_FALSE(b == r);
  const auto [h1, h2] = BucketOnlyTwins();
  R x = r;
  R y = r;
  *x.metrics.histogram(kRetriesHist) = h1;
  *y.metrics.histogram(kRetriesHist) = h2;
  EXPECT_FALSE(x == y);
  *y.metrics.histogram(kRetriesHist) = h1;
  EXPECT_TRUE(x == y);
}

TEST(ResultEqualityTest, OneFieldOrOneBucketMakesResultsUnequal) {
  const Histogram twin_a = BucketOnlyTwins().first;
  const Histogram twin_b = BucketOnlyTwins().second;
  ASSERT_EQ(twin_a.TotalCount(), twin_b.TotalCount());
  ASSERT_EQ(twin_a.Sum(), twin_b.Sum());
  ASSERT_EQ(twin_a.Min(), twin_b.Min());
  ASSERT_EQ(twin_a.Max(), twin_b.Max());
  EXPECT_FALSE(twin_a == twin_b);

  const sub::Subdivision sub = test::RandomVoronoi(40, 616);
  core::DTree::Options topt;
  topt.packet_capacity = 128;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions eopt;
  eopt.packet_capacity = 128;
  eopt.num_queries = 500;
  auto exp = RunExperiment(tree.value(), sub, nullptr, eopt);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  ExpectEqualityComparesEveryLayer<ExperimentResult>(
      exp.value(), [](ExperimentResult* r) { r->normalized_latency += 1.0; });

  FleetOptions fopt;
  fopt.packet_capacity = 128;
  fopt.num_clients = 50;
  fopt.sim_cycles = 2.0;
  auto fleet = RunFleet(tree.value(), sub, fopt);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ExpectEqualityComparesEveryLayer<FleetResult>(
      fleet.value(), [](FleetResult* r) { r->sessions += 1; });
}

TEST(RngStreamTest, StreamsAreDecorrelatedAndReproducible) {
  Rng a = Rng::ForStream(42, 0);
  Rng a2 = Rng::ForStream(42, 0);
  Rng b = Rng::ForStream(42, 1);
  Rng c = Rng::ForStream(43, 0);
  const double va = a.Uniform(0.0, 1.0);
  EXPECT_EQ(va, a2.Uniform(0.0, 1.0));  // same (seed, stream) -> same draw
  EXPECT_NE(va, b.Uniform(0.0, 1.0));   // adjacent stream differs
  EXPECT_NE(va, c.Uniform(0.0, 1.0));   // adjacent seed differs
}

TEST(QuerySamplerTest, WeightVectorSizeMismatchFails) {
  const sub::Subdivision sub = test::RandomVoronoi(10, 808);
  auto r = QuerySampler::Create(sub, QueryDistribution::kWeightedRegion,
                                std::vector<double>(3, 1.0));
  EXPECT_FALSE(r.ok());
  auto empty = QuerySampler::Create(sub, QueryDistribution::kWeightedRegion,
                                    {});
  EXPECT_FALSE(empty.ok());
}

TEST(QuerySamplerTest, RejectsNegativeNonFiniteAndAllZeroWeights) {
  const sub::Subdivision sub = test::RandomVoronoi(5, 809);
  std::vector<double> w(5, 1.0);
  w[2] = -0.5;
  EXPECT_FALSE(
      QuerySampler::Create(sub, QueryDistribution::kWeightedRegion, w).ok());
  w[2] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      QuerySampler::Create(sub, QueryDistribution::kWeightedRegion, w).ok());
  EXPECT_FALSE(QuerySampler::Create(sub, QueryDistribution::kWeightedRegion,
                                    std::vector<double>(5, 0.0))
                   .ok());
}

TEST(QuerySamplerTest, ZeroWeightRegionsAreNeverDrawn) {
  const sub::Subdivision sub = test::RandomVoronoi(12, 810);
  const sub::PointLocator oracle(sub);
  // Only regions 0 and 7 carry mass.
  std::vector<double> w(12, 0.0);
  w[0] = 1.0;
  w[7] = 3.0;
  auto sampler =
      QuerySampler::Create(sub, QueryDistribution::kWeightedRegion, w);
  ASSERT_TRUE(sampler.ok());
  Rng rng(17);
  std::set<int> hit;
  for (int i = 0; i < 4000; ++i) {
    hit.insert(oracle.Locate(sampler.value().Draw(&rng)));
  }
  EXPECT_TRUE(hit.count(0) == 1);
  EXPECT_TRUE(hit.count(7) == 1);
  EXPECT_LE(hit.size(), 2u);
}

TEST(QuerySamplerTest, SingleNonzeroWeightDrawsOnlyThatRegion) {
  // Degenerate skew: all mass on one region. Every draw must land there,
  // and the experiment driver must run on such a load without incident.
  const sub::Subdivision sub = test::RandomVoronoi(15, 811);
  const sub::PointLocator oracle(sub);
  std::vector<double> w(15, 0.0);
  w[9] = 0.25;
  auto sampler =
      QuerySampler::Create(sub, QueryDistribution::kWeightedRegion, w);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(oracle.Locate(sampler.value().Draw(&rng)), 9);
  }

  core::DTree::Options topt;
  topt.packet_capacity = 128;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 1000;
  opt.seed = 31;
  opt.distribution = QueryDistribution::kWeightedRegion;
  opt.region_weights = w;
  auto res = RunExperiment(tree.value(), sub, &oracle, opt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Every query hits the same region, so every query reads the same
  // number of data packets and the tuning envelope is tight.
  EXPECT_GE(res.value().min_tuning_total, 2.0);  // >= 1 probe + 1 index
  EXPECT_LE(res.value().min_tuning_total, res.value().max_tuning_total);
}

TEST(QuerySamplerTest, SingleRegionSubdivision) {
  // One region tiling the whole service area: both region-based
  // distributions must draw inside it.
  const geom::BBox area{0.0, 0.0, 10.0, 10.0};
  geom::Polygon square(
      {{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}});
  auto sub_r = sub::Subdivision::FromPolygons(area, {square});
  ASSERT_TRUE(sub_r.ok());
  const sub::Subdivision& sub = sub_r.value();
  Rng rng(23);
  for (QueryDistribution d : {QueryDistribution::kUniformRegion,
                              QueryDistribution::kWeightedRegion}) {
    auto sampler = QuerySampler::Create(
        sub, d,
        d == QueryDistribution::kWeightedRegion ? std::vector<double>{2.5}
                                                : std::vector<double>{});
    ASSERT_TRUE(sampler.ok());
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(area.Contains(sampler.value().Draw(&rng)));
    }
  }
}

}  // namespace
}  // namespace dtree::bcast
