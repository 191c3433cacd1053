// Tests for the semantic region cache (broadcast/region_cache.h), the
// mobility workload (workload/mobility.h), and their wiring into the
// experiment and fleet drivers.
//
// The load-bearing properties:
//  * a cache hit may never disagree with a forced cold tune-in
//    (CacheOptions::verify_hits turns every hit into a differential);
//  * cache-off and mobility-off runs are bit-identical to today;
//  * LRU order, the byte budget and epoch invalidation are deterministic;
//  * version skew flushes the cache, loss/corruption never do, and churn
//    wipes it;
//  * results stay bitwise identical across thread counts with both
//    features enabled.

#include <cmath>
#include <string>
#include <vector>

#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "broadcast/region_cache.h"
#include "broadcast/trace.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/mobility.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

geom::Polygon Square(double x0, double y0, double s) {
  return geom::Polygon({{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s},
                        {x0, y0 + s}});
}

/// In-memory sink keeping full (unserialized) QueryTrace copies.
class CollectingTraceSink : public TraceSink {
 public:
  void Consume(const QueryTrace& trace) override {
    traces.push_back(trace);
  }
  std::vector<QueryTrace> traces;
};

// ---------------------------------------------------------------------
// RegionCache unit behavior.

TEST(RegionCacheTest, LruEvictionOrderIsDeterministic) {
  CacheOptions copt;
  copt.enabled = true;
  copt.byte_budget = 2 * RegionCache::EntryBytes(Square(0, 0, 10));
  RegionCache cache(copt);

  // Disjoint cells for regions 0 and 1; region 0 becomes MRU via a hit,
  // so inserting region 2 must evict region 1 (the LRU), never region 0.
  const int ev0 = cache.Insert(Square(0, 0, 10), 0, 0);
  const int ev1 = cache.Insert(Square(20, 0, 10), 1, 0);
  EXPECT_EQ(ev0, 0);
  EXPECT_EQ(ev1, 0);
  ASSERT_NE(cache.Lookup({5, 5}), nullptr);  // region 0 -> MRU
  const int ev2 = cache.Insert(Square(40, 0, 10), 2, 0);
  EXPECT_EQ(ev2, 1);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Lookup({25, 5}), nullptr);  // region 1 is gone
  const RegionCache::Entry* e0 = cache.Lookup({5, 5});
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->region, 0);
  const RegionCache::Entry* e2 = cache.Lookup({45, 5});
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->region, 2);
  EXPECT_EQ(ev0 + ev1 + ev2, 1);
}

TEST(RegionCacheTest, ReinsertRefreshesWithoutDoubleCountingBytes) {
  CacheOptions copt;
  copt.enabled = true;
  copt.byte_budget = 1 << 20;
  RegionCache cache(copt);
  cache.Insert(Square(0, 0, 10), 0, 0);
  const size_t once = cache.bytes();
  cache.Insert(Square(0, 0, 10), 0, 0);
  EXPECT_EQ(cache.bytes(), once);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(RegionCacheTest, ByteBudgetIsEnforced) {
  const size_t entry = RegionCache::EntryBytes(Square(0, 0, 10));
  CacheOptions copt;
  copt.enabled = true;
  copt.byte_budget = 3 * entry;
  RegionCache cache(copt);
  int evicted = 0;
  for (int r = 0; r < 10; ++r) {
    evicted += cache.Insert(Square(r * 20.0, 0, 10), r, 0);
    EXPECT_LE(cache.bytes(), copt.byte_budget);
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(evicted, 7);

  // A cell larger than the whole budget is dropped immediately.
  CacheOptions tiny = copt;
  tiny.byte_budget = entry - 1;
  RegionCache small(tiny);
  EXPECT_EQ(small.Insert(Square(0, 0, 10), 0, 0), 1);
  EXPECT_EQ(small.entries(), 0u);
  EXPECT_EQ(small.bytes(), 0u);
}

TEST(RegionCacheTest, EpochSkewFlushesSameEpochRetains) {
  CacheOptions copt;
  copt.enabled = true;
  RegionCache cache(copt);
  cache.Insert(Square(0, 0, 10), 0, 3);
  cache.Insert(Square(20, 0, 10), 1, 3);
  EXPECT_EQ(cache.epoch(), 3);
  // Same-epoch stamp: a retry under loss keeps the cache intact.
  const int same = cache.OnEpochObserved(3);
  EXPECT_EQ(same, 0);
  EXPECT_EQ(cache.entries(), 2u);
  // Skew: everything goes.
  const int skew = cache.OnEpochObserved(4);
  EXPECT_EQ(skew, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.epoch(), 4);
  EXPECT_EQ(same + skew, 2);
  EXPECT_EQ(cache.Lookup({5, 5}), nullptr);
}

TEST(RegionCacheTest, ClearWipesEntriesWithoutInvalidationStats) {
  CacheOptions copt;
  copt.enabled = true;
  RegionCache cache(copt);
  cache.Insert(Square(0, 0, 10), 0, 1);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // The wiped entries are gone, not invalidated: a later epoch skew has
  // nothing left to flush, and the point no longer hits.
  EXPECT_EQ(cache.Lookup({5, 5}), nullptr);
  EXPECT_EQ(cache.OnEpochObserved(2), 0);
}

TEST(RegionCacheTest, BoundaryPointsNeverHit) {
  CacheOptions copt;
  copt.enabled = true;
  RegionCache cache(copt);
  cache.Insert(Square(0, 0, 10), 0, 0);
  // Interior: a clean hit.
  ASSERT_NE(cache.Lookup({5, 5}), nullptr);
  int misses = 0;
  const auto miss = [&](geom::Point p) {
    const bool m = cache.Lookup(p) == nullptr;
    misses += m;
    return m;
  };
  // Exactly on an edge and on a vertex: inside under the half-open rule
  // or not, the ambiguity band refuses to answer.
  EXPECT_TRUE(miss({0, 5}));
  EXPECT_TRUE(miss({0, 0}));
  // Inside but within boundary_eps of the edge: still a miss.
  EXPECT_TRUE(miss({copt.boundary_eps * 0.5, 5}));
  // Safely past the band: a hit again.
  EXPECT_FALSE(miss({copt.boundary_eps * 10, 5}));
  EXPECT_EQ(misses, 3);
}

TEST(RegionCacheTest, ValidateRejectsBadOptions) {
  CacheOptions copt;
  copt.enabled = true;
  copt.byte_budget = 0;
  EXPECT_FALSE(ValidateCacheOptions(copt).ok());
  copt.byte_budget = 1024;
  copt.boundary_eps = -1.0;
  EXPECT_FALSE(ValidateCacheOptions(copt).ok());
  copt.boundary_eps = 0.0;
  EXPECT_TRUE(ValidateCacheOptions(copt).ok());
  CacheOptions off;  // disabled: nothing else is checked
  off.byte_budget = 0;
  EXPECT_TRUE(ValidateCacheOptions(off).ok());
}

// ---------------------------------------------------------------------
// Mobility workload.

TEST(MobilityTest, WalkIsDeterministicPerStream) {
  workload::MobilityOptions mopt;
  mopt.enabled = true;
  mopt.hop_scale = 10.0;
  const geom::BBox area = workload::DefaultServiceArea();
  for (const auto model : {workload::MobilityModel::kGaussianHop,
                           workload::MobilityModel::kRandomWaypoint}) {
    mopt.model = model;
    workload::MobilityState s1, s2;
    Rng r1 = Rng::ForStream(99, workload::kMobilityStreamBase);
    Rng r2 = Rng::ForStream(99, workload::kMobilityStreamBase);
    for (int i = 0; i < 200; ++i) {
      const geom::Point a = workload::MobilityStep(mopt, area, &s1, &r1);
      const geom::Point b = workload::MobilityStep(mopt, area, &s2, &r2);
      EXPECT_EQ(a.x, b.x);  // bitwise
      EXPECT_EQ(a.y, b.y);
      EXPECT_GE(a.x, area.min_x);
      EXPECT_LE(a.x, area.max_x);
      EXPECT_GE(a.y, area.min_y);
      EXPECT_LE(a.y, area.max_y);
    }
  }
}

TEST(MobilityTest, WaypointStepsAreBounded) {
  workload::MobilityOptions mopt;
  mopt.enabled = true;
  mopt.model = workload::MobilityModel::kRandomWaypoint;
  mopt.waypoint_step = 25.0;
  const geom::BBox area = workload::DefaultServiceArea();
  workload::MobilityState s;
  Rng rng = Rng::ForStream(3, workload::kMobilityStreamBase);
  geom::Point prev = workload::MobilityStep(mopt, area, &s, &rng);
  for (int i = 0; i < 500; ++i) {
    const geom::Point next = workload::MobilityStep(mopt, area, &s, &rng);
    EXPECT_LE(geom::Distance(prev, next), mopt.waypoint_step + 1e-9);
    prev = next;
  }
}

TEST(MobilityTest, ValidateRejectsBadOptions) {
  workload::MobilityOptions mopt;
  mopt.enabled = true;
  mopt.hop_scale = 0.0;
  EXPECT_FALSE(workload::ValidateMobilityOptions(mopt).ok());
  mopt.model = workload::MobilityModel::kRandomWaypoint;
  mopt.hop_scale = 10.0;
  mopt.waypoint_step = -1.0;
  EXPECT_FALSE(workload::ValidateMobilityOptions(mopt).ok());
  workload::MobilityOptions off;  // disabled: nothing else is checked
  off.hop_scale = 0.0;
  EXPECT_TRUE(workload::ValidateMobilityOptions(off).ok());
}

// ---------------------------------------------------------------------
// Experiment driver wiring.

struct ExperimentRig {
  workload::Dataset dataset;
  core::DTree tree;

  ExperimentRig()
      : dataset(workload::MakeUniformDataset().value()),
        tree(Build(dataset.subdivision)) {}

  static core::DTree Build(const sub::Subdivision& s) {
    core::DTree::Options topt;
    topt.packet_capacity = 256;
    return core::DTree::Build(s, topt).value();
  }
};

ExperimentOptions MakeMobileCacheOptions() {
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 4096;
  opt.seed = 17;
  opt.mobility.enabled = true;
  opt.mobility.model = workload::MobilityModel::kGaussianHop;
  // UNIFORM has 1000 cells in a 1000x1000 area (~30-unit cells): a
  // 4-unit hop mostly stays inside the current Voronoi cell.
  opt.mobility.hop_scale = 4.0;
  opt.cache.enabled = true;
  opt.cache.verify_hits = true;
  return opt;
}

TEST(RegionCacheExperimentTest, CacheOffRunsAreUntouchedBitwise) {
  ExperimentRig rig;
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 2000;
  opt.seed = 5;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.1;
  opt.loss.seed = 9;

  std::string jsonl_a;
  JsonlTraceSink sink_a(&jsonl_a);
  opt.trace_sink = &sink_a;
  auto a = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // Toggling every cache knob except `enabled` must change nothing: the
  // disabled feature is inert, down to the serialized trace bytes.
  std::string jsonl_b;
  JsonlTraceSink sink_b(&jsonl_b);
  opt.trace_sink = &sink_b;
  opt.cache.byte_budget = 1;
  opt.cache.verify_hits = true;
  opt.cache.boundary_eps = 123.0;
  auto b = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a.value().mean_latency, b.value().mean_latency);  // bitwise
  EXPECT_EQ(a.value().mean_tuning_total, b.value().mean_tuning_total);
  EXPECT_EQ(a.value().mean_retries, b.value().mean_retries);
  EXPECT_EQ(a.value().cache_hits, 0);
  EXPECT_EQ(a.value().cache_misses, 0);
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_EQ(jsonl_a.find("cache_hit"), std::string::npos);
}

TEST(RegionCacheExperimentTest, EveryHitSurvivesTheColdDifferential) {
  // verify_hits replays each hit against a forced cold tune-in inside the
  // driver; any region/epoch divergence fails the run. Exercise it across
  // the fault schedules the ISSUE names: loss, corruption, and both.
  ExperimentRig rig;
  std::vector<LossOptions> configs(4);
  configs[1].model = LossModel::kIid;
  configs[1].loss_rate = 0.2;
  configs[1].seed = 31;
  configs[2].corruption.model = CorruptionModel::kIidBits;
  configs[2].corruption.bit_error_rate = 2e-5;
  configs[2].corruption.seed = 32;
  configs[3].model = LossModel::kGilbertElliott;
  configs[3].loss_bad = 0.8;
  configs[3].seed = 33;
  configs[3].corruption.model = CorruptionModel::kIidBits;
  configs[3].corruption.bit_error_rate = 1e-5;
  configs[3].corruption.seed = 34;
  configs[3].fallback_scan_cycles = 2;

  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    ExperimentOptions opt = MakeMobileCacheOptions();
    opt.num_queries = 2048;
    opt.loss = configs[cfg];
    auto r = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
    ASSERT_TRUE(r.ok()) << "cfg=" << cfg << ": " << r.status().ToString();
    EXPECT_GT(r.value().cache_hits, 0) << "cfg=" << cfg;
    EXPECT_EQ(r.value().cache_hits + r.value().cache_misses,
              opt.num_queries);
  }
}

TEST(RegionCacheExperimentTest, SmallHopsHitOftenAndSaveTuning) {
  ExperimentRig rig;
  ExperimentOptions on = MakeMobileCacheOptions();
  auto r_on = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, on);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();

  ExperimentOptions off = on;
  off.cache.enabled = false;
  auto r_off =
      RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, off);
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  const auto& von = r_on.value();
  const double hit_rate = static_cast<double>(von.cache_hits) /
                          static_cast<double>(on.num_queries);
  EXPECT_GT(hit_rate, 0.5);
  // Identical query points (the walk's streams don't depend on the
  // cache), so the tuning saved is exactly the hits' worth.
  EXPECT_LT(von.mean_tuning_total, r_off.value().mean_tuning_total);
  EXPECT_LT(von.mean_latency, r_off.value().mean_latency);
}

TEST(RegionCacheExperimentTest, HitTracesCarryZeroTuningAndOneEvent) {
  ExperimentRig rig;
  ExperimentOptions opt = MakeMobileCacheOptions();
  opt.num_queries = 1024;
  CollectingTraceSink sink;
  opt.trace_sink = &sink;
  auto r = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(sink.traces.size(), static_cast<size_t>(opt.num_queries));
  int64_t hit_lines = 0;
  for (const QueryTrace& qt : sink.traces) {
    if (!qt.cache_hit) continue;
    ++hit_lines;
    EXPECT_EQ(qt.latency, 0.0);
    EXPECT_EQ(qt.tuning_total, 0);
    ASSERT_EQ(qt.events.size(), 1u);
    EXPECT_EQ(qt.events[0].kind, TraceEventKind::kCacheHit);
  }
  EXPECT_EQ(hit_lines, r.value().cache_hits);
}

TEST(RegionCacheExperimentTest, ThreadCountInvarianceWithCacheAndWalk) {
  ExperimentRig rig;
  ExperimentOptions opt = MakeMobileCacheOptions();
  opt.num_queries = 2048;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.15;
  opt.loss.seed = 77;
  opt.num_threads = 1;
  auto ref = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (int threads : {4, 8}) {
    opt.num_threads = threads;
    auto r = RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().mean_latency, ref.value().mean_latency);  // bitwise
    EXPECT_EQ(r.value().mean_tuning_total, ref.value().mean_tuning_total);
    EXPECT_EQ(r.value().cache_hits, ref.value().cache_hits);
    EXPECT_EQ(r.value().cache_misses, ref.value().cache_misses);
    EXPECT_EQ(r.value().cache_evictions, ref.value().cache_evictions);
    EXPECT_EQ(r.value().cache_invalidations,
              ref.value().cache_invalidations);
  }
}

TEST(RegionCacheExperimentTest, OptionValidationPropagates) {
  ExperimentRig rig;
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 10;
  opt.cache.enabled = true;
  opt.cache.byte_budget = 0;
  EXPECT_FALSE(
      RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt).ok());
  opt.cache.byte_budget = 1024;
  opt.mobility.enabled = true;
  opt.mobility.hop_scale = -2.0;
  EXPECT_FALSE(
      RunExperiment(rig.tree, rig.dataset.subdivision, nullptr, opt).ok());
}

// ---------------------------------------------------------------------
// Fleet engine wiring.

FleetOptions MakeMobileCacheFleetOptions() {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 128;
  fopt.sim_cycles = 6.0;
  fopt.queries_per_cycle = 2.0;
  fopt.seed = 23;
  fopt.mobility.enabled = true;
  fopt.mobility.model = workload::MobilityModel::kGaussianHop;
  fopt.mobility.hop_scale = 4.0;
  fopt.cache.enabled = true;
  fopt.cache.verify_hits = true;
  return fopt;
}

TEST(RegionCacheFleetTest, CachePersistsWithinGenerationAndDiesOnChurn) {
  ExperimentRig rig;
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  auto keep = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(keep.ok()) << keep.status().ToString();
  EXPECT_TRUE(keep.value().cache_enabled);
  EXPECT_GT(keep.value().cache_hits, 0);
  EXPECT_EQ(keep.value().cache_hits + keep.value().cache_misses,
            keep.value().queries);

  // churn = 1: every completed query retires its session, so no client
  // ever queries a warm cache — hits must be exactly zero.
  fopt.churn = 1.0;
  auto wipe = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(wipe.ok()) << wipe.status().ToString();
  EXPECT_EQ(wipe.value().cache_hits, 0);
  EXPECT_EQ(wipe.value().cache_misses, wipe.value().queries);
}

TEST(RegionCacheFleetTest, HitQueriesNeverTuneIn) {
  ExperimentRig rig;
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  CollectingTraceSink sink;
  fopt.trace_sink = &sink;
  auto r = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t hits = 0;
  for (const QueryTrace& qt : sink.traces) {
    if (!qt.cache_hit) continue;
    ++hits;
    EXPECT_EQ(qt.latency, 0.0);
    EXPECT_EQ(qt.tuning_total, 0);
    ASSERT_EQ(qt.events.size(), 1u);
    EXPECT_EQ(qt.events[0].kind, TraceEventKind::kCacheHit);
  }
  EXPECT_EQ(hits, r.value().cache_hits);
  EXPECT_GT(hits, 0);
}

TEST(RegionCacheFleetTest, ThreadCountInvarianceWithCacheAndWalk) {
  ExperimentRig rig;
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  fopt.churn = 0.2;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.1;
  fopt.loss.seed = 41;
  fopt.num_threads = 1;
  auto ref = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (int threads : {4, 8}) {
    fopt.num_threads = threads;
    auto r = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().queries, ref.value().queries);
    EXPECT_EQ(r.value().mean_latency, ref.value().mean_latency);  // bitwise
    EXPECT_EQ(r.value().mean_tuning_total, ref.value().mean_tuning_total);
    EXPECT_EQ(r.value().cache_hits, ref.value().cache_hits);
    EXPECT_EQ(r.value().cache_misses, ref.value().cache_misses);
    EXPECT_EQ(r.value().cache_evictions, ref.value().cache_evictions);
    EXPECT_EQ(r.value().cache_invalidations,
              ref.value().cache_invalidations);
  }
}

TEST(RegionCacheFleetTest, EpochSkewFlushesTheCache) {
  // Same geometry under two epoch ids: the answers never change (so
  // verify_hits stays a strict differential) but every client observing
  // the switch must flush.
  ExperimentRig rig;
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  fopt.sim_cycles = 8.0;
  std::vector<FleetEpoch> epochs = {{&rig.tree, &rig.dataset.subdivision,
                                     /*epoch=*/0, /*cycles=*/2},
                                    {&rig.tree, &rig.dataset.subdivision,
                                     /*epoch=*/7, /*cycles=*/1}};
  auto r = RunFleetVersioned(epochs, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().cache_hits, 0);
  EXPECT_GT(r.value().cache_invalidations, 0);
}

TEST(RegionCacheFleetTest, VerifiedHitsAcrossEpochsWithDifferentSites) {
  // Two epochs over different site sets, so region ids differ between
  // them. A client that has not yet heard the switch rightly answers from
  // the entry it cached under the old epoch; verify_hits must check that
  // entry against the index of the epoch it carries, not the one on the
  // air.
  const workload::Dataset other = workload::MakeUniformDataset(8).value();
  ExperimentRig rig;
  const core::DTree other_tree = ExperimentRig::Build(other.subdivision);
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  const std::vector<FleetEpoch> epochs = {
      {&rig.tree, &rig.dataset.subdivision, /*epoch=*/0, /*cycles=*/2},
      {&other_tree, &other.subdivision, /*epoch=*/1, /*cycles=*/1}};
  auto r = RunFleetVersioned(epochs, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().cache_hits, 0);
  EXPECT_GT(r.value().cache_invalidations, 0);

  // Verification is a pure check: the run is the unverified one, bit for
  // bit.
  fopt.cache.verify_hits = false;
  auto plain = RunFleetVersioned(epochs, fopt);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().cache_hits, r.value().cache_hits);
  EXPECT_EQ(plain.value().mean_latency, r.value().mean_latency);
  EXPECT_EQ(plain.value().mean_tuning_total, r.value().mean_tuning_total);
}

TEST(RegionCacheFleetTest, CorruptionDoesNotInvalidate) {
  // A mangled frame carries no trustworthy epoch evidence: with a single
  // epoch on the air, heavy corruption must produce zero invalidations.
  ExperimentRig rig;
  FleetOptions fopt = MakeMobileCacheFleetOptions();
  fopt.loss.corruption.model = CorruptionModel::kIidBits;
  fopt.loss.corruption.bit_error_rate = 5e-5;
  fopt.loss.corruption.seed = 55;
  auto r = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().total_corrupted_packets, 0);
  EXPECT_EQ(r.value().cache_invalidations, 0);
  EXPECT_GT(r.value().cache_hits, 0);
}

TEST(RegionCacheFleetTest, CacheOffFleetIsUntouchedBitwise) {
  ExperimentRig rig;
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 64;
  fopt.sim_cycles = 3.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 61;

  std::string jsonl_a;
  JsonlTraceSink sink_a(&jsonl_a);
  fopt.trace_sink = &sink_a;
  auto a = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  std::string jsonl_b;
  JsonlTraceSink sink_b(&jsonl_b);
  fopt.trace_sink = &sink_b;
  fopt.cache.byte_budget = 1;  // inert while enabled stays false
  fopt.cache.verify_hits = true;
  auto b = RunFleet(rig.tree, rig.dataset.subdivision, fopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a.value().mean_latency, b.value().mean_latency);  // bitwise
  EXPECT_EQ(a.value().mean_tuning_total, b.value().mean_tuning_total);
  EXPECT_EQ(a.value().queries, b.value().queries);
  EXPECT_FALSE(a.value().cache_enabled);
  EXPECT_EQ(a.value().cache_hits, 0);
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_EQ(jsonl_a.find("cache_hit"), std::string::npos);
}

TEST(RegionCacheFleetTest, OptionValidationPropagates) {
  ExperimentRig rig;
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.cache.enabled = true;
  fopt.cache.byte_budget = 0;
  EXPECT_FALSE(RunFleet(rig.tree, rig.dataset.subdivision, fopt).ok());
  fopt.cache.byte_budget = 1024;
  fopt.mobility.enabled = true;
  fopt.mobility.hop_scale = 0.0;
  EXPECT_FALSE(RunFleet(rig.tree, rig.dataset.subdivision, fopt).ok());
}

}  // namespace
}  // namespace dtree::bcast
