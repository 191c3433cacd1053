// Golden pins of the client access protocol.
//
// The paper's two measures, tuning time and access latency, both come
// from one client protocol: probe, doze to the next index segment,
// descend while dozing between index packets, doze to the data bucket,
// plus the re-tune, fallback-scan and epoch-skew rungs of the degradation
// ladder. These tests pin everything that protocol produces through each
// public entry point:
//
//  (a) BroadcastChannel::Simulate over D-tree traces, trian-tree traces,
//      reversed D-tree traces and an empty-index channel. Neither paged
//      family emits a backward pointer, so the reversed traces stand in
//      for a DAG-shaped walk: every read after the first points at or
//      before its predecessor and waits for the next index repetition;
//  (b) BroadcastTimeline::Simulate on a two-epoch timeline whose epochs
//      have different site sets, at epoch-switch budgets 0 and 8;
//  (c) RunExperiment, RunFleet and RunFleetVersioned with churn, with the
//      region cache and Gaussian mobility off and on, at 1 and 4 threads.
//
// Each digest is FNV-1a-64 over the decimal text of every outcome field
// (doubles as %.17g) and every JSONL trace line. A driver run has two
// digests: one over every result field, the trace lines, the telemetry
// timeline and the Prometheus text, and one over its flight records
// alone, so a change to the flight recorder moves only the second. A
// change that moves a single bit of any value is a protocol change, so
// the values move only in a deliberate re-pin. There have been two. The
// first moved the 18 non-empty flight digests when flight records began
// to be written from each query's own trace. The second moved 51 digests
// when the per-query and per-session streams moved to the counter-based
// StreamRng (common/rng.h): the Simulate, Timeline and Experiment digests
// of loss configs 1, 2 and 4 with their non-empty flight digests, and
// every fleet and versioned-fleet digest but the empty flights. Config 0
// is lossless and config 3 loses every read whatever the draw, so their
// Simulate, Timeline and Experiment digests are as first recorded.
//
// The fleet pins attach telemetry and a trace sink; one more case re-runs
// each pinned fleet without telemetry, and with telemetry but no trace
// sink, and requires the same result, trace and telemetry bytes.
//
// Each case also asserts that the ladder branches it exists for fire at
// least once — every GiveUpStage, a fallback scan that answers, a
// backward-pointer wait, and an epoch switch found during the descent,
// during a bucket read and during a fallback scan — so no pin can quietly
// cover only the happy path.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "broadcast/trace.h"
#include "broadcast/versioned.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

using QueryOutcome = BroadcastChannel::QueryOutcome;

/// FNV-1a-64 over the decimal text of the values fed to it.
class Digest {
 public:
  void Text(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
    h_ ^= static_cast<unsigned char>('|');
    h_ *= 1099511628211ull;
  }
  void Num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Text(buf);
  }
  void Int(int64_t v) { Text(std::to_string(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void ExpectDigest(const std::string& what, uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << what << ": digest " << Hex(got) << ", pinned "
                       << Hex(want);
}

/// epoch_test's loss-config table, plus one short ladder (a single
/// re-tune, then up to three scan cycles) so that fallback scans both
/// answer and run out.
std::vector<LossOptions> LossConfigs() {
  std::vector<LossOptions> configs(5);
  // configs[0]: the paper's reliable medium.
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
  configs[3].loss_rate = 1.0;
  configs[3].seed = 15;
  configs[3].max_retries = 3;
  configs[4].model = LossModel::kIid;
  configs[4].loss_rate = 0.35;
  configs[4].seed = 16;
  configs[4].max_retries = 1;
  configs[4].fallback_scan_cycles = 3;
  configs[4].corruption.model = CorruptionModel::kIidBits;
  configs[4].corruption.bit_error_rate = 1e-5;
  configs[4].corruption.seed = 17;
  return configs;
}

/// The pinned digests of one driver run: everything but the flight
/// records (results, trace JSONL, timeline and Prometheus text), and the
/// flight records alone.
struct DriverPins {
  uint64_t run;
  uint64_t flight;
};

/// The pinned digests of one loss config.
struct ConfigPins {
  uint64_t simulate;
  uint64_t timeline[2];      ///< max_epoch_switches 0, 8
  DriverPins experiment[2];  ///< cache and mobility off, on
  DriverPins fleet[2];
  DriverPins versioned_fleet[2];
};

constexpr ConfigPins kPins[] = {
    {0x78b0463f03e72cadull,
     {0x3951e14637766263ull, 0x920994c0c464bf20ull},
     {{0xa5bd64a761c7af82ull, 0xaf63f14c8602103bull},
      {0xc85c12f0af8fb52bull, 0xaf63f14c8602103bull}},
     {{0xa5331b494087f7e3ull, 0xaf63f14c8602103bull},
      {0xbdf468c778a6d507ull, 0xaf63f14c8602103bull}},
     {{0x4a791469125737afull, 0xaf63f14c8602103bull},
      {0xa4a0a7f9972173c9ull, 0xaf63f14c8602103bull}}},
    {0x482bf3268682990full,
     {0x17ec6513dc80184cull, 0xf4d02a2ed255e0faull},
     {{0x10b57d1cfbd3ab2full, 0xc0b606cae21397d3ull},
      {0x35dec7c9348ab105ull, 0xb6f40e58b8680e46ull}},
     {{0xe331a2f3975a0748ull, 0xb82b6c67645d140eull},
      {0xaeb5db125618a84aull, 0x12113fff599508c2ull}},
     {{0xe4458bac913bc136ull, 0x69a3744bd78b2304ull},
      {0xaa621d169055d486ull, 0x1df1922aa149a800ull}}},
    {0xe9a1ac04066d9732ull,
     {0xf72bddb4843b62e1ull, 0x618401f6f9b5a176ull},
     {{0xa799ad94c9473db0ull, 0xaf63f14c8602103bull},
      {0x26eff80e5a77b48eull, 0xaf63f14c8602103bull}},
     {{0xbf40ab53f3b7ef7aull, 0xaf63f14c8602103bull},
      {0xeac2b334258bc4bfull, 0xaf63f14c8602103bull}},
     {{0x4c65ababf413e798ull, 0xaf63f14c8602103bull},
      {0xcc0301bb1641298aull, 0xaf63f14c8602103bull}}},
    {0x9243787b847e4f7aull,
     {0xa8abc0f091ec836dull, 0xcfb5574f44974b73ull},
     {{0x54ec8be0184d7dffull, 0x549927165f58e23eull},
      {0xe292c83b3b9c7438ull, 0x85cf7a01952f1cc9ull}},
     {{0x740eeb288109596dull, 0x2e2837f391eb1569ull},
      {0x18aaab47a7c617ceull, 0x2e2837f391eb1569ull}},
     {{0x3f7f672035aaa547ull, 0x23fc84f4e58e8845ull},
      {0x2d6d458f4c1f6af4ull, 0x23fc84f4e58e8845ull}}},
    {0x91db88ad96873725ull,
     {0x8b3e856e5a69ec64ull, 0xeb3493bd949839bfull},
     {{0x8bfef3bce717d3ecull, 0x57b4770ddd516227ull},
      {0x71efc4a521b865f5ull, 0x077a3c2dc875ee49ull}},
     {{0xd1530a671452bf5dull, 0xd63be36f07af9a2aull},
      {0x440470937be19df1ull, 0x626777ba75602803ull}},
     {{0xc567a0dbc4e03644ull, 0xb9f1f0d5f4987174ull},
      {0xd47bf12d3faaf5adull, 0xc6543d32f15b34d6ull}}},
};

void HashOutcome(const QueryOutcome& out, Digest* d) {
  d->Num(out.latency);
  d->Int(out.tuning_probe);
  d->Int(out.tuning_index);
  d->Int(out.tuning_data);
  d->Int(out.retries);
  d->Int(out.lost_packets);
  d->Int(out.corrupted_packets);
  d->Int(out.fallback_scan);
  d->Int(out.unrecoverable);
  d->Int(static_cast<int>(out.give_up));
  d->Int(out.epoch);
  d->Int(out.epoch_switches);
  d->Int(out.cache_hit);
}

/// Which ladder branches a set of simulated queries exercised, read back
/// from their outcomes and trace events.
struct Branches {
  int give_up[5] = {};  ///< by GiveUpStage
  int fallback_answered = 0;
  int backward_wait = 0;
  int switch_in_descent = 0;
  int switch_in_bucket = 0;
  int switch_in_fallback = 0;

  void Count(const QueryOutcome& out, const QueryTrace& qt) {
    ++give_up[static_cast<int>(out.give_up)];
    if (out.fallback_scan && !out.unrecoverable) ++fallback_answered;
    int last_index_packet = -1;
    bool in_fallback = false;
    TraceEventKind prev = TraceEventKind::kProbe;
    for (const TraceEvent& e : qt.events) {
      switch (e.kind) {
        case TraceEventKind::kIndexRead:
          // A read of one descent pointing at or before the previous
          // packet: that packet already went by, so the client waited for
          // the next index repetition.
          if (e.packet <= last_index_packet) ++backward_wait;
          last_index_packet = e.packet;
          break;
        case TraceEventKind::kRetune:
          last_index_packet = -1;
          break;
        case TraceEventKind::kFallbackScan:
          in_fallback = true;
          break;
        case TraceEventKind::kEpochSwitch:
          last_index_packet = -1;
          if (in_fallback) {
            ++switch_in_fallback;
          } else if (prev == TraceEventKind::kIndexRead) {
            ++switch_in_descent;
          } else if (prev == TraceEventKind::kBucketRead) {
            ++switch_in_bucket;
          }
          break;
        default:
          break;
      }
      if (e.kind != TraceEventKind::kDoze) prev = e.kind;
    }
  }
};

ChannelOptions MakeChannelOptions(int capacity, const LossOptions& loss) {
  ChannelOptions copt;
  copt.packet_capacity = capacity;
  copt.loss = loss;
  return copt;
}

core::DTree BuildDTree(const sub::Subdivision& s, int capacity) {
  core::DTree::Options topt;
  topt.packet_capacity = capacity;
  return core::DTree::Build(s, topt).value();
}

// ---------------------------------------------------------------------------
// (a) BroadcastChannel::Simulate.

TEST(ProtocolGoldenTest, ChannelSimulate) {
  const sub::Subdivision s = test::RandomVoronoi(60, 901);
  const core::DTree dtree = BuildDTree(s, 256);
  baselines::TrianTree::Options kopt;
  kopt.packet_capacity = 128;
  const baselines::TrianTree trian =
      baselines::TrianTree::Build(s, kopt).value();

  Branches seen;
  const std::vector<LossOptions> configs = LossConfigs();
  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    const BroadcastChannel dch =
        BroadcastChannel::Create(dtree.NumIndexPackets(), s.NumRegions(),
                                 MakeChannelOptions(256, configs[cfg]))
            .value();
    const BroadcastChannel kch =
        BroadcastChannel::Create(trian.NumIndexPackets(), s.NumRegions(),
                                 MakeChannelOptions(128, configs[cfg]))
            .value();
    const BroadcastChannel ech =
        BroadcastChannel::Create(0, s.NumRegions(),
                                 MakeChannelOptions(64, configs[cfg]))
            .value();
    Digest d;
    Rng rng(1000 + cfg);
    for (int q = 0; q < 2000; ++q) {
      const geom::Point p = test::UnambiguousQueryPoint(s, &rng);
      ProbeTrace trace;
      const BroadcastChannel* ch = &dch;
      if (q % 4 == 1) {
        ASSERT_TRUE(trian.ProbeInto(p, &trace).ok());
        ch = &kch;
      } else {
        ASSERT_TRUE(dtree.ProbeInto(p, &trace).ok());
      }
      if (q % 4 == 2) {
        std::reverse(trace.packets.begin(), trace.packets.end());
        std::reverse(trace.origins.begin(), trace.origins.end());
      } else if (q % 4 == 3) {
        trace.packets.clear();
        trace.origins.clear();
        ch = &ech;
      }
      double arrival =
          rng.Uniform(0.0, static_cast<double>(ch->cycle_packets()));
      // Every tenth query arrives exactly on a packet start.
      if (q % 10 == 0) arrival = std::floor(arrival);
      QueryTrace qt;
      qt.query_index = static_cast<uint64_t>(q);
      qt.x = p.x;
      qt.y = p.y;
      qt.region = trace.region;
      qt.arrival = arrival;
      auto out_r = ch->Simulate(trace, arrival, static_cast<uint64_t>(q), &qt);
      ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
      HashOutcome(out_r.value(), &d);
      d.Text(FormatQueryTraceJson(qt, ""));
      seen.Count(out_r.value(), qt);
    }
    ExpectDigest("simulate cfg " + std::to_string(cfg), d.value(),
                 kPins[cfg].simulate);
  }
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kNone)], 0);
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kProbeBudget)], 0);
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kRetryBudget)], 0);
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kFallbackBudget)], 0);
  EXPECT_GT(seen.fallback_answered, 0);
  EXPECT_GT(seen.backward_wait, 0);
}

// ---------------------------------------------------------------------------
// (b) BroadcastTimeline::Simulate.

TEST(ProtocolGoldenTest, TimelineSimulate) {
  const sub::Subdivision s0 = test::RandomVoronoi(40, 207);
  const sub::Subdivision s1 = test::RandomVoronoi(55, 208);
  const core::DTree t0 = BuildDTree(s0, 128);
  const core::DTree t1 = BuildDTree(s1, 128);

  Branches seen;
  const std::vector<LossOptions> configs = LossConfigs();
  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    for (int b = 0; b < 2; ++b) {
      LossOptions loss = configs[cfg];
      loss.max_epoch_switches = b == 0 ? 0 : 8;
      const BroadcastChannel c0 =
          BroadcastChannel::Create(t0.NumIndexPackets(), s0.NumRegions(),
                                   MakeChannelOptions(128, loss))
              .value();
      const BroadcastChannel c1 =
          BroadcastChannel::Create(t1.NumIndexPackets(), s1.NumRegions(),
                                   MakeChannelOptions(128, loss))
              .value();
      const BroadcastTimeline tl =
          BroadcastTimeline::Create({{&c0, 0, 2}, {&c1, 1, 1}}).value();
      const double boundary = static_cast<double>(tl.span_end(0));
      const double cycle0 = static_cast<double>(c0.cycle_packets());

      Digest d;
      Rng rng(2000 + 10 * cfg + b);
      for (int q = 0; q < 600; ++q) {
        const geom::Point p = test::UnambiguousQueryPoint(s0, &rng);
        const std::vector<ProbeTrace> traces = {t0.Probe(p).value(),
                                                t1.Probe(p).value()};
        // Most arrivals fall in span 0's last cycle, so the client dozes
        // across the switch; some land past it.
        double arrival = boundary - cycle0 + rng.Uniform(0.0, 1.5 * cycle0);
        if (q % 10 == 0) arrival = std::floor(arrival);
        QueryTrace qt;
        qt.query_index = static_cast<uint64_t>(q);
        qt.x = p.x;
        qt.y = p.y;
        qt.region = traces[0].region;
        qt.arrival = arrival;
        auto out_r =
            tl.Simulate(traces, arrival, static_cast<uint64_t>(q), &qt);
        ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
        HashOutcome(out_r.value(), &d);
        d.Text(FormatQueryTraceJson(qt, ""));
        seen.Count(out_r.value(), qt);
      }
      ExpectDigest("timeline cfg " + std::to_string(cfg) + " budget " +
                       std::to_string(loss.max_epoch_switches),
                   d.value(), kPins[cfg].timeline[b]);
    }
  }
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kEpochChurn)], 0);
  EXPECT_GT(seen.give_up[static_cast<int>(GiveUpStage::kFallbackBudget)], 0);
  EXPECT_GT(seen.fallback_answered, 0);
  EXPECT_GT(seen.switch_in_descent, 0);
  EXPECT_GT(seen.switch_in_bucket, 0);
  EXPECT_GT(seen.switch_in_fallback, 0);
}

// ---------------------------------------------------------------------------
// (c) The drivers.

void HashHistograms(const MetricsRegistry& m, Digest* d) {
  for (const auto& [name, h] : m.histograms()) {
    d->Text(name);
    d->Int(static_cast<int64_t>(h.TotalCount()));
    d->Num(h.Sum());
    d->Num(h.Min());
    d->Num(h.Max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      d->Int(static_cast<int64_t>(h.BucketCount(i)));
    }
  }
}

void HashExperiment(const ExperimentResult& r, Digest* d) {
  d->Text(r.index_name);
  for (int64_t v : {static_cast<int64_t>(r.packet_capacity),
                    static_cast<int64_t>(r.m),
                    static_cast<int64_t>(r.index_packets),
                    static_cast<int64_t>(r.index_bytes), r.data_packets,
                    r.cycle_packets, r.total_retries,
                    r.total_corrupted_packets, r.unrecoverable_queries,
                    r.fallback_queries, r.cache_hits, r.cache_misses,
                    r.cache_evictions, r.cache_invalidations}) {
    d->Int(v);
  }
  for (double v :
       {r.mean_latency, r.optimal_latency, r.normalized_latency,
        r.mean_tuning_index, r.mean_tuning_total, r.mean_tuning_noindex,
        r.indexing_efficiency, r.normalized_index_size, r.mean_retries,
        r.mean_lost_packets, r.mean_corrupted_packets, r.min_latency,
        r.max_latency, r.min_tuning_total, r.max_tuning_total}) {
    d->Num(v);
  }
  HashHistograms(r.metrics, d);
}

void HashFleet(const FleetResult& r, Digest* d) {
  d->Text(r.index_name);
  for (int64_t v :
       {static_cast<int64_t>(r.packet_capacity), static_cast<int64_t>(r.m),
        static_cast<int64_t>(r.index_packets), r.data_packets,
        r.cycle_packets, r.horizon_packets, r.num_clients, r.sessions,
        r.departures, r.queries, r.total_retries, r.total_lost_packets,
        r.total_corrupted_packets, r.unrecoverable_queries,
        r.fallback_queries, r.total_epoch_switches, r.epoch_churn_queries,
        static_cast<int64_t>(r.cache_enabled), r.cache_hits, r.cache_misses,
        r.cache_evictions, r.cache_invalidations}) {
    d->Int(v);
  }
  for (double v :
       {r.mean_latency, r.mean_tuning_index, r.mean_tuning_total,
        r.mean_retries, r.mean_lost_packets, r.mean_corrupted_packets,
        r.mean_epoch_switches, r.min_latency, r.max_latency,
        r.min_tuning_total, r.max_tuning_total}) {
    d->Num(v);
  }
  HashHistograms(r.metrics, d);
}

void HashTelemetry(const FleetTelemetry& tel, const TelemetryTotals* totals,
                   Digest* d) {
  d->Text(tel.TimelineJsonl("golden", totals));
  d->Text(tel.PrometheusText());
}

/// Checks a driver run's digest (`run`, which HashTelemetry finished)
/// and its flight records' digest against their pins.
void ExpectDriverDigests(const std::string& what, const Digest& run,
                         const FleetTelemetry& tel, const DriverPins& want) {
  ExpectDigest(what, run.value(), want.run);
  Digest flight;
  flight.Text(tel.flight_records());
  ExpectDigest(what + " flight", flight.value(), want.flight);
}

void EnableCacheAndMobility(CacheOptions* cache,
                            workload::MobilityOptions* mobility) {
  cache->enabled = true;
  mobility->enabled = true;
  mobility->model = workload::MobilityModel::kGaussianHop;
  mobility->hop_scale = 4.0;
}

TEST(ProtocolGoldenTest, Experiment) {
  const sub::Subdivision s = test::RandomVoronoi(80, 404);
  const core::DTree tree = BuildDTree(s, 256);
  int64_t hits = 0;
  int64_t fallbacks = 0;
  int64_t flight_records = 0;
  const std::vector<LossOptions> configs = LossConfigs();
  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    for (int cached = 0; cached < 2; ++cached) {
      for (int threads : {1, 4}) {
        ExperimentOptions opt;
        opt.packet_capacity = 256;
        opt.num_queries = 1500;
        opt.seed = 7;
        opt.num_threads = threads;
        opt.loss = configs[cfg];
        if (cached == 1) EnableCacheAndMobility(&opt.cache, &opt.mobility);
        // The experiment's traces also feed the trace-driven telemetry.
        const BroadcastChannel ch =
            BroadcastChannel::Create(tree.NumIndexPackets(), s.NumRegions(),
                                     MakeChannelOptions(256, opt.loss))
                .value();
        FleetTelemetry tel;
        tel.Reset(ch.cycle_packets(), 1);
        tel.set_cache_enabled(opt.cache.enabled);
        TelemetryTraceSink tel_sink(&tel);
        std::string jsonl;
        JsonlTraceSink jsonl_sink(&jsonl);
        TeeTraceSink tee({&jsonl_sink, &tel_sink});
        opt.trace_sink = &tee;
        auto r = RunExperiment(tree, s, nullptr, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        tel.MergeShards();
        Digest d;
        HashExperiment(r.value(), &d);
        d.Text(jsonl);
        HashTelemetry(tel, nullptr, &d);
        ExpectDriverDigests("experiment cfg " + std::to_string(cfg) +
                                " cached " + std::to_string(cached) +
                                " threads " + std::to_string(threads),
                            d, tel, kPins[cfg].experiment[cached]);
        hits += r.value().cache_hits;
        fallbacks += r.value().fallback_queries;
        flight_records += tel.flight_record_count();
      }
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(flight_records, 0);
}

FleetOptions MakeFleetOptions(const LossOptions& loss, int cached,
                              int threads) {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 150;
  fopt.sim_cycles = 4.0;
  fopt.queries_per_cycle = 1.5;
  fopt.churn = 0.1;
  fopt.seed = 11;
  fopt.num_threads = threads;
  fopt.loss = loss;
  if (cached == 1) EnableCacheAndMobility(&fopt.cache, &fopt.mobility);
  return fopt;
}

TEST(ProtocolGoldenTest, Fleet) {
  const sub::Subdivision s = test::RandomVoronoi(80, 404);
  const core::DTree tree = BuildDTree(s, 256);
  int64_t hits = 0;
  int64_t departures = 0;
  int64_t fallbacks = 0;
  int64_t flight_records = 0;
  const std::vector<LossOptions> configs = LossConfigs();
  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    for (int cached = 0; cached < 2; ++cached) {
      for (int threads : {1, 4}) {
        FleetOptions fopt = MakeFleetOptions(configs[cfg], cached, threads);
        std::string jsonl;
        JsonlTraceSink sink(&jsonl);
        fopt.trace_sink = &sink;
        FleetTelemetry tel;
        fopt.telemetry = &tel;
        auto r = RunFleet(tree, s, fopt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const TelemetryTotals totals = TotalsFromFleet(r.value());
        Digest d;
        HashFleet(r.value(), &d);
        d.Text(jsonl);
        HashTelemetry(tel, &totals, &d);
        ExpectDriverDigests("fleet cfg " + std::to_string(cfg) + " cached " +
                                std::to_string(cached) + " threads " +
                                std::to_string(threads),
                            d, tel, kPins[cfg].fleet[cached]);
        hits += r.value().cache_hits;
        departures += r.value().departures;
        fallbacks += r.value().fallback_queries;
        flight_records += tel.flight_record_count();
      }
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(departures, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(flight_records, 0);
}

TEST(ProtocolGoldenTest, VersionedFleet) {
  const sub::Subdivision s0 = test::RandomVoronoi(40, 96);
  const sub::Subdivision s1 = test::RandomVoronoi(52, 97);
  const core::DTree t0 = BuildDTree(s0, 256);
  const core::DTree t1 = BuildDTree(s1, 256);
  const std::vector<FleetEpoch> epochs = {{&t0, &s0, 0, 2},
                                          {&t1, &s1, 1, 1}};
  int64_t hits = 0;
  int64_t switches = 0;
  int64_t invalidations = 0;
  const std::vector<LossOptions> configs = LossConfigs();
  for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
    for (int cached = 0; cached < 2; ++cached) {
      for (int threads : {1, 4}) {
        FleetOptions fopt = MakeFleetOptions(configs[cfg], cached, threads);
        fopt.sim_cycles = 5.0;
        std::string jsonl;
        JsonlTraceSink sink(&jsonl);
        fopt.trace_sink = &sink;
        FleetTelemetry tel;
        fopt.telemetry = &tel;
        auto r = RunFleetVersioned(epochs, fopt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const TelemetryTotals totals = TotalsFromFleet(r.value());
        Digest d;
        HashFleet(r.value(), &d);
        d.Text(jsonl);
        HashTelemetry(tel, &totals, &d);
        ExpectDriverDigests("versioned fleet cfg " + std::to_string(cfg) +
                                " cached " + std::to_string(cached) +
                                " threads " + std::to_string(threads),
                            d, tel, kPins[cfg].versioned_fleet[cached]);
        hits += r.value().cache_hits;
        switches += r.value().total_epoch_switches;
        invalidations += r.value().cache_invalidations;
      }
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(switches, 0);
  EXPECT_GT(invalidations, 0);
}

// The pinned fleets attach both telemetry and a trace sink. This case
// re-runs each of their configurations without telemetry, and with
// telemetry but no trace sink, where the engine feeds telemetry from one
// scratch trace per shard: attaching telemetry must not move the
// FleetResult or the trace bytes, and dropping the trace sink must not
// move the FleetResult or the telemetry bytes.
TEST(ProtocolGoldenTest, FleetWithoutTelemetryMatchesPinnedRuns) {
  const sub::Subdivision s = test::RandomVoronoi(80, 404);
  const core::DTree tree = BuildDTree(s, 256);
  const sub::Subdivision s0 = test::RandomVoronoi(40, 96);
  const sub::Subdivision s1 = test::RandomVoronoi(52, 97);
  const core::DTree t0 = BuildDTree(s0, 256);
  const core::DTree t1 = BuildDTree(s1, 256);
  const std::vector<FleetEpoch> epochs = {{&t0, &s0, 0, 2},
                                          {&t1, &s1, 1, 1}};
  const std::vector<LossOptions> configs = LossConfigs();
  for (const bool versioned : {false, true}) {
    for (size_t cfg = 0; cfg < configs.size(); ++cfg) {
      for (int cached = 0; cached < 2; ++cached) {
        for (int threads : {1, 4}) {
          const std::string what =
              std::string(versioned ? "versioned fleet" : "fleet") +
              " cfg " + std::to_string(cfg) + " cached " +
              std::to_string(cached) + " threads " + std::to_string(threads);
          FleetOptions fopt = MakeFleetOptions(configs[cfg], cached, threads);
          if (versioned) fopt.sim_cycles = 5.0;
          // Run 0 traces, run 1 traces with telemetry (the pinned run),
          // run 2 has telemetry only.
          FleetResult results[3];
          std::string jsonl[3];
          std::string exports[3];
          for (int run = 0; run < 3; ++run) {
            JsonlTraceSink sink(&jsonl[run]);
            fopt.trace_sink = run < 2 ? &sink : nullptr;
            FleetTelemetry tel;
            fopt.telemetry = run > 0 ? &tel : nullptr;
            auto r = versioned ? RunFleetVersioned(epochs, fopt)
                               : RunFleet(tree, s, fopt);
            ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
            results[run] = std::move(r).value();
            if (run > 0) {
              exports[run] = tel.TimelineJsonl() + tel.flight_records() +
                             tel.PrometheusText();
            }
          }
          EXPECT_TRUE(results[0] == results[1]) << what;
          EXPECT_TRUE(results[2] == results[1]) << what;
          EXPECT_TRUE(jsonl[0] == jsonl[1]) << what << ": trace bytes differ";
          EXPECT_TRUE(exports[2] == exports[1])
              << what << ": telemetry bytes differ";
          EXPECT_GT(results[0].queries, 0) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dtree::bcast
