// Tests for the bit-corruption fault layer and the degradation ladder in
// BroadcastChannel::Simulate: corruption options validation, the
// determinism contracts (corruption rate 0 reproduces today's outcomes
// bit-for-bit, results independent of thread count), the retry -> re-tune
// -> fallback-linear-scan ladder, and the trace events that mirror it.

#include <cmath>
#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/loss.h"
#include "broadcast/trace.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

BroadcastChannel MakeChannel(const LossOptions& loss) {
  ChannelOptions o;
  o.packet_capacity = 1024;  // bucket = 1 packet
  o.m = 2;
  o.loss = loss;
  auto ch = BroadcastChannel::Create(/*index_packets=*/2, /*num_regions=*/4,
                                     o);
  EXPECT_TRUE(ch.ok()) << ch.status().ToString();
  return std::move(ch).value();
}

ProbeTrace MakeTrace() {
  ProbeTrace t;
  t.region = 2;
  t.packets = {0, 1};
  return t;
}

void ExpectSameOutcome(const BroadcastChannel::QueryOutcome& a,
                       const BroadcastChannel::QueryOutcome& b) {
  EXPECT_EQ(a.latency, b.latency);  // bitwise, not approximate
  EXPECT_EQ(a.tuning_probe, b.tuning_probe);
  EXPECT_EQ(a.tuning_index, b.tuning_index);
  EXPECT_EQ(a.tuning_data, b.tuning_data);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.corrupted_packets, b.corrupted_packets);
  EXPECT_EQ(a.fallback_scan, b.fallback_scan);
  EXPECT_EQ(a.unrecoverable, b.unrecoverable);
  EXPECT_EQ(a.give_up, b.give_up);
}

TEST(CorruptionOptionsTest, ValidatesRanges) {
  CorruptionOptions ok;
  EXPECT_TRUE(ValidateCorruptionOptions(ok).ok());  // kNone
  ok.model = CorruptionModel::kIidBits;
  ok.bit_error_rate = 1e-4;
  EXPECT_TRUE(ValidateCorruptionOptions(ok).ok());

  CorruptionOptions bad = ok;
  bad.bit_error_rate = -1e-9;
  EXPECT_FALSE(ValidateCorruptionOptions(bad).ok());
  bad.bit_error_rate = 1.5;
  EXPECT_FALSE(ValidateCorruptionOptions(bad).ok());
  bad.bit_error_rate = std::nan("");
  EXPECT_FALSE(ValidateCorruptionOptions(bad).ok());

  bad = CorruptionOptions{};
  bad.model = CorruptionModel::kBurstBits;
  bad.p_good_to_bad = 0.0;
  bad.p_bad_to_good = 0.0;  // absorbing chain: no stationary distribution
  EXPECT_FALSE(ValidateCorruptionOptions(bad).ok());
  bad.p_bad_to_good = 0.5;
  bad.ber_bad = 2.0;
  EXPECT_FALSE(ValidateCorruptionOptions(bad).ok());

  // LossOptions validation covers the nested corruption options and the
  // fallback knob.
  LossOptions lo;
  lo.corruption.model = CorruptionModel::kIidBits;
  lo.corruption.bit_error_rate = -0.5;
  EXPECT_FALSE(ValidateLossOptions(lo).ok());
  lo.corruption.bit_error_rate = 0.0;
  EXPECT_TRUE(ValidateLossOptions(lo).ok());
  lo.fallback_scan_cycles = -1;
  EXPECT_FALSE(ValidateLossOptions(lo).ok());

  ChannelOptions co;
  co.packet_capacity = 64;
  co.loss.corruption.model = CorruptionModel::kIidBits;
  co.loss.corruption.bit_error_rate = 2.0;
  EXPECT_FALSE(BroadcastChannel::Create(1, 4, co).ok());
}

TEST(CorruptionChannelTest, ZeroBerMatchesDisabledBitForBit) {
  const BroadcastChannel off = MakeChannel(LossOptions{});
  LossOptions zero;
  zero.corruption.model = CorruptionModel::kIidBits;
  zero.corruption.bit_error_rate = 0.0;
  zero.corruption.seed = 99;
  zero.fallback_scan_cycles = 2;  // armed but must never fire
  const BroadcastChannel on = MakeChannel(zero);
  const ProbeTrace trace = MakeTrace();

  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(off.cycle_packets()));
    const uint64_t stream = static_cast<uint64_t>(i);
    auto a = off.Simulate(trace, arrival, stream);
    auto b = on.Simulate(trace, arrival, stream);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameOutcome(a.value(), b.value());
    EXPECT_EQ(b.value().corrupted_packets, 0);
    EXPECT_FALSE(b.value().fallback_scan);
    EXPECT_EQ(b.value().give_up, GiveUpStage::kNone);
  }
}

TEST(CorruptionChannelTest, EnablingCorruptionDoesNotPerturbLossDraws) {
  // The corruption process draws from its own seed space, so a lossy
  // channel with zero-rate corruption attached replays the loss-only
  // outcomes bit-for-bit.
  LossOptions loss_only;
  loss_only.model = LossModel::kIid;
  loss_only.loss_rate = 0.05;
  loss_only.seed = 7;
  LossOptions both = loss_only;
  both.corruption.model = CorruptionModel::kIidBits;
  both.corruption.bit_error_rate = 0.0;
  both.corruption.seed = 1234;
  const BroadcastChannel a = MakeChannel(loss_only);
  const BroadcastChannel b = MakeChannel(both);
  const ProbeTrace trace = MakeTrace();
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(a.cycle_packets()));
    auto ra = a.Simulate(trace, arrival, static_cast<uint64_t>(i));
    auto rb = b.Simulate(trace, arrival, static_cast<uint64_t>(i));
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ExpectSameOutcome(ra.value(), rb.value());
  }
}

TEST(CorruptionChannelTest, HighBerCorruptsAndRetunes) {
  LossOptions lo;
  lo.corruption.model = CorruptionModel::kIidBits;
  lo.corruption.bit_error_rate = 1e-4;  // ~56% per 8224-bit frame
  lo.corruption.seed = 3;
  const BroadcastChannel ch = MakeChannel(lo);
  const ProbeTrace trace = MakeTrace();
  Rng rng(23);
  int64_t corrupted = 0, retries = 0;
  for (int i = 0; i < 500; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    auto r = ch.Simulate(trace, arrival, static_cast<uint64_t>(i));
    ASSERT_TRUE(r.ok());
    corrupted += r.value().corrupted_packets;
    retries += r.value().retries;
    EXPECT_EQ(r.value().lost_packets, 0);  // erasure model is off
  }
  EXPECT_GT(corrupted, 0);
  EXPECT_GT(retries, 0);
}

TEST(CorruptionChannelTest, BurstModelIsDeterministic) {
  LossOptions lo;
  lo.corruption.model = CorruptionModel::kBurstBits;
  lo.corruption.ber_good = 1e-6;
  lo.corruption.ber_bad = 1e-3;
  lo.corruption.p_good_to_bad = 0.1;
  lo.corruption.p_bad_to_good = 0.3;
  lo.corruption.seed = 5;
  lo.fallback_scan_cycles = 2;
  const BroadcastChannel ch1 = MakeChannel(lo);
  const BroadcastChannel ch2 = MakeChannel(lo);
  const ProbeTrace trace = MakeTrace();
  Rng rng(29);
  int64_t corrupted = 0;
  for (int i = 0; i < 300; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch1.cycle_packets()));
    auto a = ch1.Simulate(trace, arrival, static_cast<uint64_t>(i));
    auto b = ch2.Simulate(trace, arrival, static_cast<uint64_t>(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameOutcome(a.value(), b.value());
    corrupted += a.value().corrupted_packets;
  }
  EXPECT_GT(corrupted, 0);
}

TEST(CorruptionChannelTest, FallbackScanRecoversWhatRetriesCannot) {
  LossOptions harsh;
  harsh.model = LossModel::kIid;
  harsh.loss_rate = 0.5;
  harsh.max_retries = 1;
  harsh.seed = 11;
  LossOptions with_fallback = harsh;
  with_fallback.fallback_scan_cycles = 8;
  const BroadcastChannel bare = MakeChannel(harsh);
  const BroadcastChannel armed = MakeChannel(with_fallback);
  const ProbeTrace trace = MakeTrace();
  Rng rng(31);
  int bare_unrecoverable = 0, armed_unrecoverable = 0, fallbacks = 0;
  for (int i = 0; i < 500; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(bare.cycle_packets()));
    auto a = bare.Simulate(trace, arrival, static_cast<uint64_t>(i));
    auto b = armed.Simulate(trace, arrival, static_cast<uint64_t>(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    bare_unrecoverable += a.value().unrecoverable ? 1 : 0;
    armed_unrecoverable += b.value().unrecoverable ? 1 : 0;
    if (b.value().fallback_scan) {
      ++fallbacks;
      // The ladder only reaches the scan after the retry budget burned.
      EXPECT_GT(b.value().retries + b.value().tuning_probe, 1);
      // Scanning listens; it never ends up cheaper than giving up at the
      // same point, and a recovered scan still answered the query.
      if (!b.value().unrecoverable) {
        EXPECT_GE(b.value().latency, a.value().latency);
      } else {
        EXPECT_EQ(b.value().give_up, GiveUpStage::kFallbackBudget);
      }
    }
    if (!a.value().unrecoverable) {
      // Queries the retry protocol already recovers are untouched by
      // arming the fallback.
      ExpectSameOutcome(a.value(), b.value());
    }
  }
  EXPECT_GT(bare_unrecoverable, 0);
  EXPECT_GT(fallbacks, 0);
  // The whole point: the scan rescues most of what retries could not.
  EXPECT_LT(armed_unrecoverable, bare_unrecoverable);
}

TEST(CorruptionChannelTest, TotalLossExhaustsEveryRung) {
  LossOptions lo;
  lo.model = LossModel::kIid;
  lo.loss_rate = 1.0;
  lo.max_retries = 2;
  lo.seed = 13;
  lo.fallback_scan_cycles = 3;
  const BroadcastChannel ch = MakeChannel(lo);
  const ProbeTrace trace = MakeTrace();
  auto r = ch.Simulate(trace, 0.25, 0);
  ASSERT_TRUE(r.ok());
  const auto& out = r.value();
  EXPECT_TRUE(out.unrecoverable);
  EXPECT_TRUE(out.fallback_scan);
  EXPECT_EQ(out.give_up, GiveUpStage::kFallbackBudget);
  EXPECT_GT(out.latency, 0.0);  // terminated with finite give-up latency

  // Without the fallback the same channel gives up at the probe rung.
  lo.fallback_scan_cycles = 0;
  const BroadcastChannel bare = MakeChannel(lo);
  auto r2 = bare.Simulate(trace, 0.25, 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().unrecoverable);
  EXPECT_FALSE(r2.value().fallback_scan);
  EXPECT_EQ(r2.value().give_up, GiveUpStage::kProbeBudget);
}

TEST(CorruptionChannelTest, TraceEventsMirrorOutcome) {
  LossOptions lo;
  lo.model = LossModel::kIid;
  lo.loss_rate = 0.3;
  lo.max_retries = 1;
  lo.seed = 41;
  lo.corruption.model = CorruptionModel::kIidBits;
  lo.corruption.bit_error_rate = 5e-5;
  lo.corruption.seed = 42;
  lo.fallback_scan_cycles = 4;
  const BroadcastChannel ch = MakeChannel(lo);
  const ProbeTrace trace = MakeTrace();
  Rng rng(43);
  int corruption_events_total = 0, fallback_events_total = 0;
  for (int i = 0; i < 400; ++i) {
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    QueryTrace qt;
    auto r = ch.Simulate(trace, arrival, static_cast<uint64_t>(i), &qt);
    ASSERT_TRUE(r.ok());
    const auto& out = r.value();
    EXPECT_EQ(qt.corrupted_packets, out.corrupted_packets);
    EXPECT_EQ(qt.fallback_scan, out.fallback_scan);
    int losses = 0, corruptions = 0, fallback_events = 0, reads = 0;
    double doze = 0.0;
    for (const TraceEvent& e : qt.events) {
      switch (e.kind) {
        case TraceEventKind::kLoss:
          ++losses;
          break;
        case TraceEventKind::kCorruption:
          ++corruptions;
          break;
        case TraceEventKind::kFallbackScan:
          ++fallback_events;
          reads += e.packet;
          break;
        case TraceEventKind::kProbe:
          ++reads;
          break;
        case TraceEventKind::kIndexRead:
          ++reads;
          break;
        case TraceEventKind::kBucketRead:
          reads += e.packet;
          break;
        case TraceEventKind::kDoze:
          doze += e.dur;
          break;
        case TraceEventKind::kRetune:
          break;
        case TraceEventKind::kEpochSwitch:
          ADD_FAILURE() << "single-epoch traces never switch";
          break;
        case TraceEventKind::kCacheHit:
          ADD_FAILURE() << "cacheless traces never hit a region cache";
          break;
      }
    }
    EXPECT_EQ(losses, out.lost_packets);
    EXPECT_EQ(corruptions, out.corrupted_packets);
    EXPECT_EQ(fallback_events > 0, out.fallback_scan);
    EXPECT_EQ(reads, out.tuning_total());
    // The paper's invariant survives the fallback rung: every elapsed
    // packet is either dozed through or read.
    EXPECT_NEAR(doze + reads, out.latency, 1e-6);
    corruption_events_total += corruptions;
    fallback_events_total += fallback_events;
  }
  EXPECT_GT(corruption_events_total, 0);
  EXPECT_GT(fallback_events_total, 0);
}

// --- experiment-level determinism -------------------------------------------

ExperimentOptions CorruptionExperimentOptions(int threads) {
  ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 4000;
  opt.seed = 42;
  opt.num_threads = threads;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.05;
  opt.loss.max_retries = 2;
  opt.loss.seed = 7;
  opt.loss.corruption.model = CorruptionModel::kIidBits;
  opt.loss.corruption.bit_error_rate = 5e-5;
  opt.loss.corruption.seed = 8;
  opt.loss.fallback_scan_cycles = 2;
  return opt;
}

TEST(CorruptionExperimentTest, ResultsAreThreadCountInvariant) {
  const sub::Subdivision sub = test::RandomVoronoi(30, 9);
  core::DTree::Options o;
  o.packet_capacity = 128;
  const core::DTree tree = core::DTree::Build(sub, o).value();

  ExperimentResult base;
  bool first = true;
  for (int threads : {1, 4, 8}) {
    auto r = RunExperiment(tree, sub, nullptr,
                           CorruptionExperimentOptions(threads));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ExperimentResult& res = r.value();
    EXPECT_GT(res.total_corrupted_packets, 0);
    if (first) {
      base = std::move(r).value();
      first = false;
      continue;
    }
    EXPECT_EQ(base.mean_latency, res.mean_latency);  // bitwise
    EXPECT_EQ(base.mean_tuning_total, res.mean_tuning_total);
    EXPECT_EQ(base.total_retries, res.total_retries);
    EXPECT_EQ(base.total_corrupted_packets, res.total_corrupted_packets);
    EXPECT_EQ(base.mean_lost_packets, res.mean_lost_packets);
    EXPECT_EQ(base.unrecoverable_queries, res.unrecoverable_queries);
    EXPECT_EQ(base.fallback_queries, res.fallback_queries);
  }
}

TEST(CorruptionExperimentTest, ZeroRatesReproduceTheFaultFreeDriver) {
  const sub::Subdivision sub = test::RandomVoronoi(30, 9);
  core::DTree::Options o;
  o.packet_capacity = 128;
  const core::DTree tree = core::DTree::Build(sub, o).value();

  ExperimentOptions clean;
  clean.packet_capacity = 128;
  clean.num_queries = 4000;
  clean.seed = 42;
  ExperimentOptions zeroed = clean;
  zeroed.loss.model = LossModel::kIid;
  zeroed.loss.loss_rate = 0.0;
  zeroed.loss.corruption.model = CorruptionModel::kIidBits;
  zeroed.loss.corruption.bit_error_rate = 0.0;
  zeroed.loss.fallback_scan_cycles = 4;

  auto a = RunExperiment(tree, sub, nullptr, clean);
  auto b = RunExperiment(tree, sub, nullptr, zeroed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().mean_latency, b.value().mean_latency);  // bitwise
  EXPECT_EQ(a.value().mean_tuning_index, b.value().mean_tuning_index);
  EXPECT_EQ(a.value().mean_tuning_total, b.value().mean_tuning_total);
  EXPECT_EQ(b.value().total_retries, 0);
  EXPECT_EQ(b.value().total_corrupted_packets, 0);
  EXPECT_EQ(b.value().fallback_queries, 0);
  EXPECT_EQ(b.value().unrecoverable_queries, 0);
}

}  // namespace
}  // namespace dtree::bcast
