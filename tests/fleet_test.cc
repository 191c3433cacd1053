// Tests for the event-driven fleet engine (broadcast/fleet.h).
//
// The fleet and BroadcastChannel::Simulate are two drivers of one access
// protocol (broadcast/access.h): the fleet runs it in absolute time from
// its event heap, Simulate synchronously on the arrival wrapped into the
// cycle. The drivers must agree — every query a fleet client completes,
// replayed through Simulate with the same probe trace, the wrapped
// arrival and the query's loss stream (FleetQueryLossStream), matches
// field-for-field, which is cycle-shift invariance. On top of that:
// bitwise thread-count invariance of FleetResult, option validation,
// churn accounting, and the exhaustive GiveUpStageName round-trip.

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "broadcast/fleet.h"
#include "broadcast/versioned.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

/// In-memory sink keeping full (unserialized) QueryTrace copies, so the
/// agreement check can recover each query's exact point, arrival and
/// outcome summary.
class VectorTraceSink : public TraceSink {
 public:
  void Consume(const QueryTrace& trace) override {
    traces.push_back(trace);
  }
  std::vector<QueryTrace> traces;
};

BroadcastChannel MakeFleetChannel(const AirIndex& index,
                                  const sub::Subdivision& sub,
                                  const FleetOptions& fopt) {
  auto ch_r = BroadcastChannel::Create(index.NumIndexPackets(),
                                      sub.NumRegions(),
                                      fopt.channel_options());
  EXPECT_TRUE(ch_r.ok()) << ch_r.status().ToString();
  return std::move(ch_r).value();
}

/// Replays every traced fleet query through the synchronous driver and
/// demands the identical outcome: same probe trace (recomputed from the
/// query point), arrival wrapped mod the cycle, loss stream recomputed
/// from (seed, client_id, query_index) via the public helpers.
void ExpectFleetMatchesSimulate(const AirIndex& index,
                                const BroadcastChannel& ch,
                                uint64_t fleet_seed,
                                const std::vector<QueryTrace>& traces) {
  const double cycle = static_cast<double>(ch.cycle_packets());
  ProbeTrace trace;
  for (const QueryTrace& qt : traces) {
    ASSERT_GE(qt.client_id, 0);
    const uint64_t key =
        FleetClientKey(fleet_seed, static_cast<uint64_t>(qt.client_id));
    ASSERT_TRUE(index.ProbeInto({qt.x, qt.y}, &trace).ok());
    ASSERT_EQ(trace.region, qt.region);
    auto out_r =
        ch.Simulate(trace, std::fmod(qt.arrival, cycle),
                    FleetQueryLossStream(key, qt.query_index));
    ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
    const auto& out = out_r.value();
    EXPECT_EQ(out.latency, qt.latency);  // bitwise, not approximate
    EXPECT_EQ(out.tuning_total(), qt.tuning_total);
    EXPECT_EQ(out.retries, qt.retries);
    EXPECT_EQ(out.lost_packets, qt.lost_packets);
    EXPECT_EQ(out.corrupted_packets, qt.corrupted_packets);
    EXPECT_EQ(out.fallback_scan, qt.fallback_scan);
    EXPECT_EQ(out.unrecoverable, qt.unrecoverable);
  }
}

void ExpectIdenticalFleetResults(const FleetResult& a,
                                 const FleetResult& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.mean_latency, b.mean_latency);  // bitwise
  EXPECT_EQ(a.mean_tuning_index, b.mean_tuning_index);
  EXPECT_EQ(a.mean_tuning_total, b.mean_tuning_total);
  EXPECT_EQ(a.mean_retries, b.mean_retries);
  EXPECT_EQ(a.mean_lost_packets, b.mean_lost_packets);
  EXPECT_EQ(a.mean_corrupted_packets, b.mean_corrupted_packets);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_lost_packets, b.total_lost_packets);
  EXPECT_EQ(a.total_corrupted_packets, b.total_corrupted_packets);
  EXPECT_EQ(a.unrecoverable_queries, b.unrecoverable_queries);
  EXPECT_EQ(a.fallback_queries, b.fallback_queries);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.min_tuning_total, b.min_tuning_total);
  EXPECT_EQ(a.max_tuning_total, b.max_tuning_total);
  const Histogram* ha = a.metrics.FindHistogram(kLatencyHist);
  const Histogram* hb = b.metrics.FindHistogram(kLatencyHist);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
  EXPECT_EQ(ha->Sum(), hb->Sum());  // bitwise: fixed shard merge order
  EXPECT_EQ(ha->Min(), hb->Min());
  EXPECT_EQ(ha->Max(), hb->Max());
}

TEST(FleetTest, SingleClientSingleQueryReproducesSimulateFieldForField) {
  // Driver agreement in its purest form: a fleet of one client issuing
  // one query is one Simulate call on the wrapped arrival, for every rung
  // of the fault ladder.
  auto ds = workload::MakeUniformDataset();
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());

  std::vector<LossOptions> configs(4);
  // configs[0]: lossless.
  configs[1].model = LossModel::kIid;
  configs[1].loss_rate = 0.3;
  configs[1].seed = 12;
  configs[2].model = LossModel::kGilbertElliott;
  configs[2].loss_bad = 0.9;
  configs[2].seed = 13;
  configs[2].corruption.model = CorruptionModel::kIidBits;
  configs[2].corruption.bit_error_rate = 2e-5;
  configs[2].corruption.seed = 14;
  configs[2].fallback_scan_cycles = 2;
  configs[3].model = LossModel::kIid;
  configs[3].loss_rate = 1.0;  // everything fails: probe-budget give-up
  configs[3].seed = 15;
  configs[3].max_retries = 3;

  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    for (uint64_t seed : {1u, 77u, 4242u}) {
      FleetOptions fopt;
      fopt.packet_capacity = 256;
      fopt.num_clients = 1;
      fopt.sim_cycles = 1.0;
      // Mean thinking time of a million cycles: the one client issues
      // exactly its join-time query inside the horizon.
      fopt.queries_per_cycle = 1e-6;
      fopt.seed = seed;
      fopt.loss = configs[cfg];
      auto fleet_r =
          RunFleet(tree.value(), ds.value().subdivision, fopt);
      ASSERT_TRUE(fleet_r.ok()) << fleet_r.status().ToString();
      const FleetResult& fr = fleet_r.value();
      ASSERT_EQ(fr.queries, 1) << "cfg=" << cfg << " seed=" << seed;
      ASSERT_EQ(fr.sessions, 1);

      // Replay the client's draws through the public stream helpers.
      const BroadcastChannel ch =
          MakeFleetChannel(tree.value(), ds.value().subdivision, fopt);
      const uint64_t key = FleetClientKey(seed, 0);
      StreamRng join_rng = StreamRng::ForStream(key, FleetJoinStream());
      const double arrival = join_rng.Uniform(
          0.0, static_cast<double>(ch.cycle_packets()));
      auto sampler_r = QuerySampler::Create(
          ds.value().subdivision, fopt.distribution, {});
      ASSERT_TRUE(sampler_r.ok());
      StreamRng point_rng = StreamRng::ForStream(key, FleetPointStream(0));
      const geom::Point p = sampler_r.value().Draw(&point_rng);
      ProbeTrace trace;
      ASSERT_TRUE(tree.value().ProbeInto(p, &trace).ok());
      auto out_r = ch.Simulate(
          trace, std::fmod(arrival, static_cast<double>(ch.cycle_packets())),
          FleetQueryLossStream(key, 0));
      ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
      const auto& out = out_r.value();

      EXPECT_EQ(fr.mean_latency, out.latency);
      EXPECT_EQ(fr.mean_tuning_index, static_cast<double>(out.tuning_index));
      EXPECT_EQ(fr.mean_tuning_total,
                static_cast<double>(out.tuning_total()));
      EXPECT_EQ(fr.total_retries, out.retries);
      EXPECT_EQ(fr.total_lost_packets, out.lost_packets);
      EXPECT_EQ(fr.total_corrupted_packets, out.corrupted_packets);
      EXPECT_EQ(fr.unrecoverable_queries, out.unrecoverable ? 1 : 0);
      EXPECT_EQ(fr.fallback_queries, out.fallback_scan ? 1 : 0);
      EXPECT_EQ(fr.min_latency, out.latency);
      EXPECT_EQ(fr.max_latency, out.latency);
      EXPECT_EQ(fr.min_tuning_total,
                static_cast<double>(out.tuning_total()));
      EXPECT_EQ(fr.max_tuning_total,
                static_cast<double>(out.tuning_total()));
    }
  }
}

TEST(FleetTest, EveryFleetQueryMatchesSimulateOnPaperDataset) {
  // Multi-query, multi-cycle single client: arrivals land in later
  // broadcast cycles, exercising the absolute-time arithmetic against
  // Simulate's in-cycle arithmetic for every completed query.
  auto ds = workload::MakeUniformDataset();
  ASSERT_TRUE(ds.ok());
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());

  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 1;
  fopt.sim_cycles = 24.0;
  fopt.queries_per_cycle = 0.5;
  fopt.seed = 9;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.2;
  fopt.loss.seed = 3;
  fopt.loss.fallback_scan_cycles = 1;
  VectorTraceSink sink;
  fopt.trace_sink = &sink;
  auto fleet_r = RunFleet(tree.value(), ds.value().subdivision, fopt);
  ASSERT_TRUE(fleet_r.ok()) << fleet_r.status().ToString();
  ASSERT_GT(fleet_r.value().queries, 3);
  ASSERT_EQ(static_cast<int64_t>(sink.traces.size()),
            fleet_r.value().queries);
  const BroadcastChannel ch =
      MakeFleetChannel(tree.value(), ds.value().subdivision, fopt);
  ExpectFleetMatchesSimulate(tree.value(), ch, fopt.seed, sink.traces);
}

TEST(FleetTest, EveryFleetQueryMatchesSimulateOnScaleUWithChurn) {
  // A populated fleet with churn on SCALE-U: later generations re-occupy
  // slots under fresh RNG identities; the drivers must agree on
  // every query of every generation.
  auto ds = workload::MakeScaleDataset(3000, workload::ScaleDistribution::kUniform);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());

  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 100;
  fopt.sim_cycles = 4.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.4;
  fopt.seed = 31;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.15;
  fopt.loss.seed = 8;
  fopt.loss.corruption.model = CorruptionModel::kIidBits;
  fopt.loss.corruption.bit_error_rate = 1e-5;
  fopt.loss.corruption.seed = 44;
  VectorTraceSink sink;
  fopt.trace_sink = &sink;
  auto fleet_r = RunFleet(tree.value(), ds.value().subdivision, fopt);
  ASSERT_TRUE(fleet_r.ok()) << fleet_r.status().ToString();
  const FleetResult& fr = fleet_r.value();
  ASSERT_GT(fr.queries, 100);
  EXPECT_GT(fr.departures, 0);
  EXPECT_GT(fr.sessions, fr.num_clients);  // churn seated new generations
  ASSERT_EQ(static_cast<int64_t>(sink.traces.size()), fr.queries);
  bool saw_later_generation = false;
  for (const QueryTrace& qt : sink.traces) {
    if (qt.client_id >= fopt.num_clients) saw_later_generation = true;
  }
  EXPECT_TRUE(saw_later_generation);
  const BroadcastChannel ch =
      MakeFleetChannel(tree.value(), ds.value().subdivision, fopt);
  ExpectFleetMatchesSimulate(tree.value(), ch, fopt.seed, sink.traces);
}

TEST(FleetTest, ThreadCountDoesNotChangeFleetResult) {
  const sub::Subdivision sub = test::RandomVoronoi(80, 404);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 20000;
  fopt.sim_cycles = 2.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 77;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.1;
  fopt.loss.seed = 21;
  fopt.num_threads = 1;
  auto serial = RunFleet(tree.value(), sub, fopt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial.value().queries, 10000);
  auto replay = RunFleet(tree.value(), sub, fopt);
  ASSERT_TRUE(replay.ok());
  ExpectIdenticalFleetResults(serial.value(), replay.value());
  for (int threads : {4, 8}) {
    fopt.num_threads = threads;
    auto parallel = RunFleet(tree.value(), sub, fopt);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdenticalFleetResults(serial.value(), parallel.value());
  }
}

TEST(FleetTest, TraceStreamIsThreadCountInvariant) {
  // The serialized trace stream — order and bytes — must not depend on
  // thread count (shard-ordered replay, completion-ordered within shard).
  const sub::Subdivision sub = test::RandomVoronoi(30, 505);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  std::string jsonl[2];
  int i = 0;
  for (int threads : {1, 8}) {
    FleetOptions fopt;
    fopt.packet_capacity = 256;
    fopt.num_clients = 500;
    fopt.sim_cycles = 2.0;
    fopt.seed = 5;
    fopt.num_threads = threads;
    fopt.loss.model = LossModel::kIid;
    fopt.loss.loss_rate = 0.1;
    fopt.loss.seed = 2;
    JsonlTraceSink sink(&jsonl[i]);
    fopt.trace_sink = &sink;
    ASSERT_TRUE(RunFleet(tree.value(), sub, fopt).ok());
    ++i;
  }
  EXPECT_FALSE(jsonl[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
}

TEST(FleetTest, ValidatesOptions) {
  const sub::Subdivision sub = test::RandomVoronoi(10, 303);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  FleetOptions good;
  good.packet_capacity = 256;
  good.num_clients = 4;
  ASSERT_TRUE(RunFleet(tree.value(), sub, good).ok());

  FleetOptions bad = good;
  bad.num_clients = 0;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.sim_cycles = 0.0;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.sim_cycles = std::nan("");
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.queries_per_cycle = 0.0;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.churn = 1.5;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.churn = std::nan("");
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.packet_capacity = 0;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
  bad = good;
  bad.loss.loss_rate = 2.0;
  bad.loss.model = LossModel::kIid;
  EXPECT_FALSE(RunFleet(tree.value(), sub, bad).ok());
}

TEST(FleetTest, ZeroCompletedQueriesYieldsZeroMeans) {
  // A horizon much shorter than one cycle: most seeds issue no query at
  // all (the client joins after the horizon). Means must be zero, never
  // NaN.
  const sub::Subdivision sub = test::RandomVoronoi(10, 304);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 1;
  fopt.sim_cycles = 1e-9;
  fopt.seed = 1;  // join time ~uniform in the first cycle: past horizon
  auto res = RunFleet(tree.value(), sub, fopt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().queries, 0);
  EXPECT_EQ(res.value().mean_latency, 0.0);
  EXPECT_EQ(res.value().mean_tuning_total, 0.0);
  EXPECT_FALSE(std::isnan(res.value().mean_latency));
  EXPECT_EQ(res.value().min_latency, 0.0);
  EXPECT_EQ(res.value().max_latency, 0.0);
}

TEST(GiveUpStageTest, NameRoundTripsForEveryStage) {
  const GiveUpStage all[] = {
      GiveUpStage::kNone,
      GiveUpStage::kProbeBudget,
      GiveUpStage::kRetryBudget,
      GiveUpStage::kFallbackBudget,
      GiveUpStage::kEpochChurn,
  };
  std::map<std::string, GiveUpStage> by_name;
  for (GiveUpStage s : all) {
    const std::string name = GiveUpStageName(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");  // every enumerator has a stable name
    // Round-trip: the name uniquely identifies the stage.
    auto [it, inserted] = by_name.emplace(name, s);
    EXPECT_TRUE(inserted) << "duplicate name: " << name;
  }
  EXPECT_EQ(by_name.size(), 5u);
  EXPECT_EQ(by_name.at("none"), GiveUpStage::kNone);
  EXPECT_EQ(by_name.at("probe_budget"), GiveUpStage::kProbeBudget);
  EXPECT_EQ(by_name.at("retry_budget"), GiveUpStage::kRetryBudget);
  EXPECT_EQ(by_name.at("fallback_budget"), GiveUpStage::kFallbackBudget);
  EXPECT_EQ(by_name.at("epoch_churn"), GiveUpStage::kEpochChurn);
}

TEST(FleetClientKeyTest, GenerationWraparoundKeepsIdentitiesDistinct) {
  // Churn seats generation g of slot s under client_id =
  // s + g * num_clients in uint64 arithmetic. The id must stay injective
  // — and the derived RNG key collision-free — all the way to a
  // generation counter wrapping 32 bits, far beyond any run's churn.
  const uint64_t num_clients = 3;
  const uint64_t generations[] = {0,      1,          2,
                                  1000,   (1u << 31), 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  std::set<uint64_t> ids;
  std::set<uint64_t> keys;
  for (uint64_t g : generations) {
    for (uint64_t slot = 0; slot < num_clients; ++slot) {
      const uint64_t id = slot + g * num_clients;
      EXPECT_TRUE(ids.insert(id).second) << "id collision at g=" << g;
      EXPECT_TRUE(keys.insert(FleetClientKey(42, id)).second)
          << "key collision at g=" << g << " slot=" << slot;
      // Different fleet seeds give a different identity for the same id.
      EXPECT_NE(FleetClientKey(42, id), FleetClientKey(43, id));
    }
  }

  // Property sweep: random (slot, generation) pairs over a large fleet.
  const uint64_t big_fleet = 1'000'000;
  Rng rng(606);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  ids.clear();
  keys.clear();
  for (int i = 0; i < 2000; ++i) {
    const uint64_t slot =
        static_cast<uint64_t>(rng.UniformInt(0, big_fleet - 1));
    const uint64_t g =
        static_cast<uint64_t>(rng.UniformInt(0, 0xFFFFFFFF));
    if (!seen.insert({slot, g}).second) continue;
    const uint64_t id = slot + g * big_fleet;
    EXPECT_TRUE(ids.insert(id).second);
    EXPECT_TRUE(keys.insert(FleetClientKey(42, id)).second);
  }
}

// ---------------------------------------------------------------------------
// Versioned fleet: RunFleetVersioned.

/// Two epochs with different subdivisions (different region counts, index
/// layouts, cycle lengths): epoch 0 on the air for two of its cycles,
/// epoch 1 forever after.
struct VersionedFleetRig {
  sub::Subdivision sub0;
  sub::Subdivision sub1;
  core::DTree tree0;
  core::DTree tree1;

  VersionedFleetRig()
      : sub0(test::RandomVoronoi(40, 96)),
        sub1(test::RandomVoronoi(52, 97)),
        tree0(BuildTree(sub0)),
        tree1(BuildTree(sub1)) {}

  static core::DTree BuildTree(const sub::Subdivision& s) {
    core::DTree::Options topt;
    topt.packet_capacity = 256;
    return core::DTree::Build(s, topt).value();
  }

  std::vector<FleetEpoch> Epochs() const {
    return {{&tree0, &sub0, 0, 2}, {&tree1, &sub1, 1, 1}};
  }
};

FleetOptions MakeVersionedFleetOptions() {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 96;
  fopt.sim_cycles = 5.0;  // measured against epoch 0's cycle
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 7;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.1;
  fopt.loss.seed = 21;
  fopt.loss.corruption.model = CorruptionModel::kIidBits;
  fopt.loss.corruption.bit_error_rate = 1e-5;
  fopt.loss.corruption.seed = 22;
  fopt.loss.fallback_scan_cycles = 2;
  return fopt;
}

void ExpectIdenticalEpochAccounting(const FleetResult& a,
                                    const FleetResult& b) {
  EXPECT_EQ(a.total_epoch_switches, b.total_epoch_switches);
  EXPECT_EQ(a.epoch_churn_queries, b.epoch_churn_queries);
  EXPECT_EQ(a.mean_epoch_switches, b.mean_epoch_switches);  // bitwise
  const Histogram* ha = a.metrics.FindHistogram(kEpochSwitchesHist);
  const Histogram* hb = b.metrics.FindHistogram(kEpochSwitchesHist);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
  EXPECT_EQ(ha->Sum(), hb->Sum());
}

TEST(VersionedFleetTest, SingleEpochMatchesRunFleetBitwise) {
  // A one-epoch timeline is the plain broadcast: RunFleetVersioned must
  // reproduce RunFleet bitwise — result fields AND the serialized trace
  // stream, up to the versioned output fields — under loss, corruption
  // and churn.
  VersionedFleetRig rig;
  FleetOptions fopt = MakeVersionedFleetOptions();

  std::string legacy_jsonl;
  JsonlTraceSink legacy_sink(&legacy_jsonl);
  fopt.trace_sink = &legacy_sink;
  auto legacy = RunFleet(rig.tree0, rig.sub0, fopt);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  std::string versioned_jsonl;
  JsonlTraceSink versioned_sink(&versioned_jsonl);
  fopt.trace_sink = &versioned_sink;
  auto versioned = RunFleetVersioned({{&rig.tree0, &rig.sub0, 0, 1}}, fopt);
  ASSERT_TRUE(versioned.ok()) << versioned.status().ToString();

  ASSERT_GT(legacy.value().queries, 100);
  ExpectIdenticalFleetResults(legacy.value(), versioned.value());
  EXPECT_EQ(versioned.value().total_epoch_switches, 0);
  EXPECT_EQ(versioned.value().epoch_churn_queries, 0);

  // Trace JSONL differs only by the versioned-gated epoch summary fields.
  EXPECT_FALSE(legacy_jsonl.empty());
  std::string stripped = versioned_jsonl;
  for (std::string::size_type at;
       (at = stripped.find(", \"epoch\": 0, \"epoch_switches\": 0")) !=
       std::string::npos;) {
    stripped.erase(at, std::string(", \"epoch\": 0, \"epoch_switches\": 0")
                           .size());
  }
  EXPECT_EQ(legacy_jsonl, stripped);
}

TEST(VersionedFleetTest, ThreadCountDoesNotChangeVersionedResult) {
  VersionedFleetRig rig;
  FleetOptions fopt = MakeVersionedFleetOptions();
  fopt.num_clients = 4000;
  fopt.num_threads = 1;
  auto serial = RunFleetVersioned(rig.Epochs(), fopt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial.value().queries, 1000);
  // The epoch boundary must actually be crossed under this config.
  EXPECT_GT(serial.value().total_epoch_switches, 0);
  for (int threads : {4, 8}) {
    fopt.num_threads = threads;
    auto parallel = RunFleetVersioned(rig.Epochs(), fopt);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdenticalFleetResults(serial.value(), parallel.value());
    ExpectIdenticalEpochAccounting(serial.value(), parallel.value());
  }
}

TEST(VersionedFleetTest, EveryQueryMatchesTimelineSimulate) {
  // Driver agreement on a two-epoch timeline: every traced fleet query
  // replays bit-identically through BroadcastTimeline::Simulate with
  // per-span probe traces, the absolute arrival, and the query's loss
  // stream.
  VersionedFleetRig rig;
  FleetOptions fopt = MakeVersionedFleetOptions();
  VectorTraceSink sink;
  fopt.trace_sink = &sink;
  auto fleet_r = RunFleetVersioned(rig.Epochs(), fopt);
  ASSERT_TRUE(fleet_r.ok()) << fleet_r.status().ToString();
  const FleetResult& fr = fleet_r.value();
  ASSERT_GT(fr.queries, 100);
  ASSERT_EQ(static_cast<int64_t>(sink.traces.size()), fr.queries);
  EXPECT_GT(fr.total_epoch_switches, 0);

  const BroadcastChannel ch0 = MakeFleetChannel(rig.tree0, rig.sub0, fopt);
  const BroadcastChannel ch1 = MakeFleetChannel(rig.tree1, rig.sub1, fopt);
  auto tl_r = BroadcastTimeline::Create({{&ch0, 0, 2}, {&ch1, 1, 1}});
  ASSERT_TRUE(tl_r.ok()) << tl_r.status().ToString();
  const BroadcastTimeline& tl = tl_r.value();

  int64_t total_switches = 0;
  int64_t churned = 0;
  ProbeTrace t0, t1;
  for (const QueryTrace& qt : sink.traces) {
    EXPECT_TRUE(qt.versioned);
    ASSERT_GE(qt.client_id, 0);
    const uint64_t key =
        FleetClientKey(fopt.seed, static_cast<uint64_t>(qt.client_id));
    ASSERT_TRUE(rig.tree0.ProbeInto({qt.x, qt.y}, &t0).ok());
    ASSERT_TRUE(rig.tree1.ProbeInto({qt.x, qt.y}, &t1).ok());
    auto out_r = tl.Simulate({t0, t1}, qt.arrival,
                             FleetQueryLossStream(key, qt.query_index));
    ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
    const auto& out = out_r.value();
    EXPECT_EQ(out.latency, qt.latency);  // bitwise, not approximate
    EXPECT_EQ(out.tuning_total(), qt.tuning_total);
    EXPECT_EQ(out.retries, qt.retries);
    EXPECT_EQ(out.lost_packets, qt.lost_packets);
    EXPECT_EQ(out.corrupted_packets, qt.corrupted_packets);
    EXPECT_EQ(out.fallback_scan, qt.fallback_scan);
    EXPECT_EQ(out.unrecoverable, qt.unrecoverable);
    EXPECT_EQ(out.epoch, qt.epoch);
    EXPECT_EQ(out.epoch_switches, qt.epoch_switches);
    total_switches += qt.epoch_switches;
    if (qt.unrecoverable && out.give_up == GiveUpStage::kEpochChurn) {
      ++churned;
    }
  }
  EXPECT_EQ(total_switches, fr.total_epoch_switches);
  EXPECT_EQ(churned, fr.epoch_churn_queries);
}

TEST(VersionedFleetTest, EpochChurnBudgetExhaustionIsAccounted) {
  // Budget 0 on a clean channel: the only failure mode is the version
  // skew itself; every switch observer gives up with kEpochChurn.
  VersionedFleetRig rig;
  FleetOptions fopt = MakeVersionedFleetOptions();
  fopt.loss = {};
  fopt.loss.max_epoch_switches = 0;
  VectorTraceSink sink;
  fopt.trace_sink = &sink;
  auto fleet_r = RunFleetVersioned(rig.Epochs(), fopt);
  ASSERT_TRUE(fleet_r.ok()) << fleet_r.status().ToString();
  const FleetResult& fr = fleet_r.value();
  EXPECT_GT(fr.epoch_churn_queries, 0);
  EXPECT_EQ(fr.epoch_churn_queries, fr.unrecoverable_queries);
  EXPECT_EQ(fr.total_epoch_switches, fr.epoch_churn_queries);
  for (const QueryTrace& qt : sink.traces) {
    EXPECT_LE(qt.epoch_switches, 1);
    if (qt.epoch_switches == 1) {
      EXPECT_TRUE(qt.unrecoverable);
      EXPECT_EQ(qt.epoch, 1);
    }
  }
}

TEST(VersionedFleetTest, ValidatesEpochs) {
  VersionedFleetRig rig;
  FleetOptions fopt = MakeVersionedFleetOptions();
  EXPECT_FALSE(RunFleetVersioned({}, fopt).ok());
  EXPECT_FALSE(
      RunFleetVersioned({{nullptr, &rig.sub0, 0, 1}}, fopt).ok());
  EXPECT_FALSE(
      RunFleetVersioned({{&rig.tree0, nullptr, 0, 1}}, fopt).ok());
  // cycles < 1 on a non-last epoch; the last epoch's count is ignored.
  EXPECT_FALSE(RunFleetVersioned(
                   {{&rig.tree0, &rig.sub0, 0, 0}, {&rig.tree1, &rig.sub1, 1, 1}},
                   fopt)
                   .ok());
  EXPECT_TRUE(RunFleetVersioned(
                  {{&rig.tree0, &rig.sub0, 0, 1}, {&rig.tree1, &rig.sub1, 1, 0}},
                  fopt)
                  .ok());
}

}  // namespace
}  // namespace dtree::bcast
