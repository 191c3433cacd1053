// Property tests for the (1, m) broadcast channel: random configurations
// and random (valid) probe traces must respect the protocol's physical
// invariants.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "broadcast/channel.h"
#include "common/rng.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

class ChannelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelPropertyTest, RandomTracesRespectInvariants) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    ChannelOptions opt;
    opt.packet_capacity = static_cast<int>(rng.UniformInt(32, 2048));
    opt.m = static_cast<int>(rng.UniformInt(0, 6));  // 0 = optimal
    const int regions = static_cast<int>(rng.UniformInt(1, 200));
    const int index_packets = static_cast<int>(rng.UniformInt(0, 300));
    auto ch_r = BroadcastChannel::Create(index_packets, regions, opt);
    ASSERT_TRUE(ch_r.ok()) << ch_r.status().ToString();
    const BroadcastChannel& ch = ch_r.value();

    // Layout invariants.
    ASSERT_GE(ch.m(), 1);
    ASSERT_LE(ch.m(), regions);
    ASSERT_EQ(ch.cycle_packets(),
              ch.data_packets() +
                  static_cast<int64_t>(ch.m()) * ch.index_packets());
    int64_t prev_start = -1;
    for (int j = 0; j < ch.m(); ++j) {
      const int64_t s = ch.IndexSegmentStart(j);
      ASSERT_GT(s, prev_start);
      ASSERT_LT(s, ch.cycle_packets());
      prev_start = s;
    }
    for (int r = 0; r < regions; ++r) {
      const int64_t b = ch.BucketStart(r);
      ASSERT_GE(b, 0);
      ASSERT_LE(b + ch.bucket_packets(), ch.cycle_packets());
      if (r > 0) {
        ASSERT_GT(b, ch.BucketStart(r - 1));
      }
    }

    // Random queries with random (possibly backward) traces.
    for (int q = 0; q < 40; ++q) {
      ProbeTrace trace;
      trace.region = static_cast<int>(rng.UniformInt(0, regions - 1));
      const int hops = static_cast<int>(
          rng.UniformInt(0, std::min(index_packets, 20)));
      int prev = -1;
      for (int h = 0; h < hops; ++h) {
        int id = static_cast<int>(rng.UniformInt(0, index_packets - 1));
        if (id == prev) continue;  // traces never re-read in place
        trace.packets.push_back(id);
        prev = id;
      }
      const double arrival =
          rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
      auto out_r = ch.Simulate(trace, arrival);
      ASSERT_TRUE(out_r.ok()) << out_r.status().ToString();
      const auto& out = out_r.value();
      // Latency at least covers reading the bucket after the probe packet.
      EXPECT_GE(out.latency, ch.bucket_packets());
      EXPECT_EQ(out.tuning_probe, 1);
      EXPECT_EQ(out.tuning_index, static_cast<int>(trace.packets.size()));
      EXPECT_EQ(out.tuning_data, ch.bucket_packets());
      // Tuning never exceeds the time spent listening.
      EXPECT_LE(out.tuning_total(), out.latency + 1.0);
      // A client can always be served within (index hops + 3) cycles.
      EXPECT_LE(out.latency,
                static_cast<double>(ch.cycle_packets()) *
                    (trace.packets.size() + 3.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(ChannelPropertyTest, ForwardTraceWithinTwoCycles) {
  // Forward-only traces (every real tree index) complete within two
  // cycles: one to reach the next index, one to reach the data.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    ChannelOptions opt;
    opt.packet_capacity = 256;
    opt.m = static_cast<int>(rng.UniformInt(1, 4));
    const int regions = static_cast<int>(rng.UniformInt(2, 100));
    const int index_packets = static_cast<int>(rng.UniformInt(1, 60));
    auto ch_r = BroadcastChannel::Create(index_packets, regions, opt);
    ASSERT_TRUE(ch_r.ok());
    const BroadcastChannel& ch = ch_r.value();
    ProbeTrace trace;
    trace.region = static_cast<int>(rng.UniformInt(0, regions - 1));
    int id = 0;
    while (id < index_packets) {
      trace.packets.push_back(id);
      id += static_cast<int>(rng.UniformInt(1, 5));
    }
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    auto out_r = ch.Simulate(trace, arrival);
    ASSERT_TRUE(out_r.ok());
    EXPECT_LE(out_r.value().latency,
              2.0 * static_cast<double>(ch.cycle_packets()) + 1.0);
  }
}

TEST(ChannelPropertyTest, NoIndexWorseOnAverageTuning) {
  // Averaged over arrivals, listening without an index costs about half a
  // data cycle of tuning — the baseline air indexing exists to beat.
  ChannelOptions opt;
  opt.packet_capacity = 1024;
  opt.m = 1;
  auto ch_r = BroadcastChannel::Create(10, 50, opt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  Rng rng(5);
  double total = 0.0;
  const int kQueries = 5000;
  for (int q = 0; q < kQueries; ++q) {
    const int region = static_cast<int>(rng.UniformInt(0, 49));
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    total += ch.SimulateNoIndex(region, arrival).value().tuning_total();
  }
  const double mean = total / kQueries;
  EXPECT_NEAR(mean, ch.data_packets() / 2.0, ch.data_packets() * 0.05);
}

TEST(ChannelPropertyTest, SimulateRejectsArrivalsOutsideTheCycle) {
  // Pinned choice for the documented precondition arrival in [0, cycle):
  // out-of-range and non-finite arrivals are InvalidArgument, never
  // silently computed. NaN is the sharp edge — it compares false against
  // both bounds, so only an explicit finiteness check catches it.
  ChannelOptions opt;
  opt.packet_capacity = 256;
  opt.m = 2;
  auto ch_r = BroadcastChannel::Create(8, 20, opt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  ProbeTrace trace;
  trace.region = 3;
  trace.packets = {0, 4};
  const double cycle = static_cast<double>(ch.cycle_packets());
  const double bad[] = {-1.0,
                        -1e-9,
                        cycle,
                        cycle + 0.5,
                        2.0 * cycle,
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (double arrival : bad) {
    auto out_r = ch.Simulate(trace, arrival);
    ASSERT_FALSE(out_r.ok()) << "arrival=" << arrival;
    EXPECT_EQ(out_r.status().code(), StatusCode::kInvalidArgument);
  }
  // The boundary cases inside the cycle remain valid.
  EXPECT_TRUE(ch.Simulate(trace, 0.0).ok());
  EXPECT_TRUE(ch.Simulate(trace, std::nextafter(cycle, 0.0)).ok());
}

TEST(ChannelPropertyTest, CreateRejectsInstanceSizesWithoutData) {
  // Every instance size that would leave the channel without a data
  // packet fails with InvalidArgument: zero bytes, a bucket count that
  // overflows int (2^40 / 64 = 2^34), and a ceiling division that would
  // wrap around SIZE_MAX.
  ChannelOptions opt;
  opt.packet_capacity = 64;
  for (size_t bad : {size_t{0}, size_t{1} << 40, SIZE_MAX}) {
    opt.data_instance_size = bad;
    const auto r = BroadcastChannel::Create(1, 5, opt);
    ASSERT_FALSE(r.ok()) << "instance size " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  opt.data_instance_size = 1;
  auto ch = BroadcastChannel::Create(1, 5, opt);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(ch.value().data_packets(), 5);
}

TEST(ChannelPropertyTest, NoIndexRejectsBadInputWithAStatus) {
  // Hostile inputs fail with InvalidArgument, never an abort: the same
  // arrivals Simulate rejects, plus regions outside the channel. Absolute
  // arrivals past one cycle are legal (they wrap).
  ChannelOptions opt;
  opt.packet_capacity = 256;
  opt.m = 2;
  auto ch_r = BroadcastChannel::Create(8, 30, opt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    int region;
    double arrival;
  } bad[] = {
      {0, std::nan("")}, {0, inf},       {0, -inf},
      {0, -1.0},         {0, -1e-300},   {-1, 0.0},
      {30, 0.0},         {1 << 30, 5.0}, {-1, std::nan("")},
  };
  for (const auto& b : bad) {
    const auto r = ch.SimulateNoIndex(b.region, b.arrival, 1);
    ASSERT_FALSE(r.ok()) << "region " << b.region << " arrival "
                         << b.arrival;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ch.SimulateNoIndex(29, 0.0).ok());
  EXPECT_TRUE(
      ch.SimulateNoIndex(0, 1e6 * static_cast<double>(ch.data_packets()))
          .ok());
}

TEST(ChannelPropertyTest, NoIndexWrapsArrivalModPureDataCycle) {
  // SimulateNoIndex's pinned choice: absolute arrivals are canonically
  // wrapped mod the pure-data cycle, so every field is bit-identical to
  // the in-cycle arrival's outcome.
  ChannelOptions opt;
  opt.packet_capacity = 512;
  opt.m = 3;
  auto ch_r = BroadcastChannel::Create(6, 40, opt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  const double data_cycle = static_cast<double>(ch.data_packets());
  Rng rng(91);
  for (int q = 0; q < 200; ++q) {
    const int region = static_cast<int>(rng.UniformInt(0, 39));
    // Snap the fractional part to a 1/1024 grid so a + k*data_cycle is
    // exactly representable and fmod recovers `a` bit-for-bit. (For a
    // full-precision mantissa the sum itself rounds, which is a property
    // of the caller's arithmetic, not of the wrap.)
    const double a =
        std::floor(rng.Uniform(0.0, data_cycle) * 1024.0) / 1024.0;
    const auto base = ch.SimulateNoIndex(region, a).value();
    for (int k : {1, 2, 7}) {
      const auto wrapped =
          ch.SimulateNoIndex(region, a + k * data_cycle).value();
      EXPECT_EQ(base.latency, wrapped.latency);
      EXPECT_EQ(base.tuning_index, wrapped.tuning_index);
      EXPECT_EQ(base.tuning_data, wrapped.tuning_data);
      EXPECT_EQ(base.retries, wrapped.retries);
    }
  }
}

TEST(ChannelPropertyTest, NoIndexZeroLossRateMatchesLosslessBitForBit) {
  // The loss-0 guarantee of the lossy no-index baseline: enabling a fault
  // model that never fires must not move a single bit (the lossless fast
  // path constructs no RNG at all).
  ChannelOptions lossless_opt;
  lossless_opt.packet_capacity = 256;
  lossless_opt.m = 2;
  auto lossless_r = BroadcastChannel::Create(8, 30, lossless_opt);
  ASSERT_TRUE(lossless_r.ok());
  ChannelOptions zero_opt = lossless_opt;
  zero_opt.loss.model = LossModel::kIid;
  zero_opt.loss.loss_rate = 0.0;
  zero_opt.loss.seed = 99;
  auto zero_r = BroadcastChannel::Create(8, 30, zero_opt);
  ASSERT_TRUE(zero_r.ok());
  Rng rng(17);
  for (int q = 0; q < 300; ++q) {
    const int region = static_cast<int>(rng.UniformInt(0, 29));
    const double arrival = rng.Uniform(
        0.0, static_cast<double>(lossless_r.value().cycle_packets()));
    const uint64_t stream = static_cast<uint64_t>(q);
    const auto a =
        lossless_r.value().SimulateNoIndex(region, arrival, stream).value();
    const auto b =
        zero_r.value().SimulateNoIndex(region, arrival, stream).value();
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.tuning_index, b.tuning_index);
    EXPECT_EQ(a.tuning_data, b.tuning_data);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(b.lost_packets, 0);
    EXPECT_FALSE(b.unrecoverable);
  }
}

TEST(ChannelPropertyTest, NoIndexUnderLossRetriesAndStaysConsistent) {
  // Under real loss the indexless baseline pays for failed buckets with
  // whole extra data cycles; the outcome obeys the same accounting
  // invariants as the indexed ladder and is a pure function of
  // (region, arrival, loss_stream).
  ChannelOptions opt;
  opt.packet_capacity = 64;  // multi-packet buckets: loss can hit mid-bucket
  opt.m = 2;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.3;
  opt.loss.seed = 5;
  opt.loss.max_retries = 6;
  auto ch_r = BroadcastChannel::Create(8, 25, opt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  Rng rng(33);
  int64_t total_retries = 0;
  for (int q = 0; q < 500; ++q) {
    const int region = static_cast<int>(rng.UniformInt(0, 24));
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.data_packets()));
    const uint64_t stream = static_cast<uint64_t>(q);
    const auto out = ch.SimulateNoIndex(region, arrival, stream).value();
    const auto replay = ch.SimulateNoIndex(region, arrival, stream).value();
    EXPECT_EQ(out.latency, replay.latency);  // deterministic replay
    EXPECT_EQ(out.retries, replay.retries);
    EXPECT_EQ(out.tuning_probe, 0);
    EXPECT_GE(out.retries, 0);
    EXPECT_LE(out.retries, opt.loss.max_retries);
    EXPECT_GE(out.tuning_data, 1);
    EXPECT_LE(out.tuning_data, (opt.loss.max_retries + 1) * ch.bucket_packets());
    EXPECT_GE(out.lost_packets, out.retries);
    // Tuning never exceeds the time spent listening.
    EXPECT_LE(out.tuning_total(), out.latency + 1.0);
    if (out.unrecoverable) {
      EXPECT_EQ(out.retries, opt.loss.max_retries);
      EXPECT_EQ(out.give_up, GiveUpStage::kRetryBudget);
    } else {
      EXPECT_EQ(out.give_up, GiveUpStage::kNone);
    }
    total_retries += out.retries;
  }
  // At 30% packet loss some bucket retrievals must have failed.
  EXPECT_GT(total_retries, 0);

  // Loss rate 1 burns the whole budget: every query is unrecoverable.
  ChannelOptions sure = opt;
  sure.loss.loss_rate = 1.0;
  auto sure_r = BroadcastChannel::Create(8, 25, sure);
  ASSERT_TRUE(sure_r.ok());
  const auto dead = sure_r.value().SimulateNoIndex(7, 100.5, 3).value();
  EXPECT_TRUE(dead.unrecoverable);
  EXPECT_EQ(dead.give_up, GiveUpStage::kRetryBudget);
  EXPECT_EQ(dead.retries, sure.loss.max_retries);
}

}  // namespace
}  // namespace dtree::bcast
