// Versioned-broadcast tests: the epoch wire stamp, the BroadcastTimeline
// client protocol (version-skew rung of the degradation ladder), and the
// VersionedProgram server (rebuild-per-epoch with the cold-rebuild
// bit-identity oracle).
//
// The two load-bearing contracts pinned here:
//  * Both Simulate entry points drive the one access protocol
//    (broadcast/access.h), and a plain channel is its one-span case: a
//    single-span BroadcastTimeline::Simulate agrees with
//    BroadcastChannel::Simulate field for field and trace event for trace
//    event across the whole loss-config table, differing only in the
//    versioned output bit.
//  * An epoch published by CommitEpoch is byte-identical to BuildEpoch run
//    cold on the same site set: there is no incremental repair path whose
//    drift could go unnoticed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/frame.h"
#include "broadcast/trace.h"
#include "broadcast/versioned.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "dtree/versioned.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

using core::DTree;
using core::SiteUpdate;
using core::VersionedProgram;
using geom::Point;

constexpr int kCapacity = 64;

// One epoch's broadcast fixture: subdivision, paged index, channel.
struct SpanRig {
  sub::Subdivision sub;
  DTree tree;
  BroadcastChannel channel;
};

SpanRig MakeSpanRig(int num_sites, uint64_t seed, const LossOptions& loss) {
  sub::Subdivision s = test::RandomVoronoi(num_sites, seed);
  DTree::Options topt;
  topt.packet_capacity = kCapacity;
  DTree t = DTree::Build(s, topt).value();
  ChannelOptions copt;
  copt.packet_capacity = kCapacity;
  copt.loss = loss;
  BroadcastChannel ch =
      BroadcastChannel::Create(t.NumIndexPackets(), s.NumRegions(), copt)
          .value();
  return SpanRig{std::move(s), std::move(t), std::move(ch)};
}

// The loss-config table the fleet agreement tests sweep; reused here so
// the single-span agreement covers every ladder rung.
std::vector<LossOptions> LossConfigs() {
  std::vector<LossOptions> configs(4);
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
  return configs;
}

void ExpectSameOutcome(const BroadcastChannel::QueryOutcome& a,
                       const BroadcastChannel::QueryOutcome& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.tuning_probe, b.tuning_probe);
  EXPECT_EQ(a.tuning_index, b.tuning_index);
  EXPECT_EQ(a.tuning_data, b.tuning_data);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.corrupted_packets, b.corrupted_packets);
  EXPECT_EQ(a.fallback_scan, b.fallback_scan);
  EXPECT_EQ(a.unrecoverable, b.unrecoverable);
  EXPECT_EQ(a.give_up, b.give_up);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.epoch_switches, b.epoch_switches);
}

void ExpectSameEvents(const std::vector<TraceEvent>& a,
                      const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].pos, b[i].pos) << "event " << i;
    EXPECT_EQ(a[i].dur, b[i].dur) << "event " << i;
    EXPECT_EQ(a[i].packet, b[i].packet) << "event " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "event " << i;
    EXPECT_EQ(a[i].depth, b[i].depth) << "event " << i;
    EXPECT_EQ(a[i].attempt, b[i].attempt) << "event " << i;
  }
}

// Energy-accounting invariant every trace must satisfy: time from arrival
// to completion splits exactly into dozing and listening. Mirrors the
// tools/trace_summary.py --check invariant.
void ExpectDozePlusReadsEqualsLatency(const QueryTrace& qt) {
  double doze = 0.0;
  double reads = 0.0;
  for (const TraceEvent& e : qt.events) {
    switch (e.kind) {
      case TraceEventKind::kProbe:
      case TraceEventKind::kIndexRead:
        reads += 1.0;
        break;
      case TraceEventKind::kBucketRead:
      case TraceEventKind::kFallbackScan:
        reads += e.packet;
        break;
      case TraceEventKind::kDoze:
        doze += e.dur;
        break;
      default:
        break;
    }
  }
  EXPECT_NEAR(doze + reads, qt.latency, 1e-6)
      << "doze " << doze << " + reads " << reads;
}

TEST(BroadcastTimelineTest, SpanArithmetic) {
  SpanRig a = MakeSpanRig(40, 201, {});
  SpanRig b = MakeSpanRig(52, 202, {});
  SpanRig c = MakeSpanRig(33, 203, {});
  auto tl_r = BroadcastTimeline::Create({{&a.channel, 5, 2},
                                         {&b.channel, 6, 3},
                                         {&c.channel, 7, 1}});
  ASSERT_OK(tl_r.status());
  const BroadcastTimeline& tl = tl_r.value();
  ASSERT_EQ(tl.num_spans(), 3);
  const int64_t end_a = 2 * a.channel.cycle_packets();
  const int64_t end_b = end_a + 3 * b.channel.cycle_packets();
  EXPECT_EQ(tl.span_start(0), 0);
  EXPECT_EQ(tl.span_end(0), end_a);
  EXPECT_EQ(tl.span_start(1), end_a);
  EXPECT_EQ(tl.span_end(1), end_b);
  EXPECT_EQ(tl.span_start(2), end_b);
  EXPECT_EQ(tl.span_end(2), INT64_MAX);
  EXPECT_EQ(tl.span(0).epoch, 5);
  EXPECT_EQ(tl.span(2).epoch, 7);

  EXPECT_EQ(tl.SpanAt(0), 0);
  EXPECT_EQ(tl.SpanAt(end_a - 1), 0);
  EXPECT_EQ(tl.SpanAt(end_a), 1);
  EXPECT_EQ(tl.SpanAt(end_b - 1), 1);
  EXPECT_EQ(tl.SpanAt(end_b), 2);
  EXPECT_EQ(tl.SpanAt(end_b + 1'000'000), 2);
}

TEST(BroadcastTimelineTest, CreateRejectsMalformedSpans) {
  SpanRig a = MakeSpanRig(40, 204, {});
  EXPECT_FALSE(BroadcastTimeline::Create({}).ok());
  EXPECT_FALSE(BroadcastTimeline::Create({{nullptr, 0, 1}}).ok());
  // cycles < 1 on a non-last span; the last span's count is ignored.
  EXPECT_FALSE(
      BroadcastTimeline::Create({{&a.channel, 0, 0}, {&a.channel, 1, 1}})
          .ok());
  EXPECT_OK(
      BroadcastTimeline::Create({{&a.channel, 0, 1}, {&a.channel, 1, 0}})
          .status());
  // Mismatched packet capacities change the frame wire format mid-air.
  sub::Subdivision s2 = test::RandomVoronoi(40, 205);
  DTree::Options topt;
  topt.packet_capacity = 2 * kCapacity;
  DTree t2 = DTree::Build(s2, topt).value();
  ChannelOptions copt;
  copt.packet_capacity = 2 * kCapacity;
  BroadcastChannel wide =
      BroadcastChannel::Create(t2.NumIndexPackets(), s2.NumRegions(), copt)
          .value();
  EXPECT_FALSE(
      BroadcastTimeline::Create({{&a.channel, 0, 1}, {&wide, 1, 1}}).ok());
}

// The two synchronous drivers agree: on a single-span timeline the epoch
// check never fires, and the outcome fields AND trace events equal
// BroadcastChannel::Simulate's under every loss config.
TEST(BroadcastTimelineTest, SingleSpanMatchesChannelSimulate) {
  for (const LossOptions& loss : LossConfigs()) {
    SpanRig rig = MakeSpanRig(40, 206, loss);
    auto tl_r = BroadcastTimeline::Create({{&rig.channel, 0, 1}});
    ASSERT_OK(tl_r.status());
    const BroadcastTimeline& tl = tl_r.value();

    Rng rng(99);
    const double cycle = static_cast<double>(rig.channel.cycle_packets());
    for (int q = 0; q < 120; ++q) {
      const Point p = test::UnambiguousQueryPoint(rig.sub, &rng);
      const ProbeTrace trace = rig.tree.Probe(p).value();
      const double arrival = rng.Uniform(0.0, cycle);
      const uint64_t stream = static_cast<uint64_t>(q);

      QueryTrace qt_chan, qt_tl;
      auto chan_r = rig.channel.Simulate(trace, arrival, stream, &qt_chan);
      auto tl_out = tl.Simulate({trace}, arrival, stream, &qt_tl);
      ASSERT_OK(chan_r.status());
      ASSERT_OK(tl_out.status());
      ExpectSameOutcome(chan_r.value(), tl_out.value());
      EXPECT_EQ(tl_out.value().epoch, 0);
      EXPECT_EQ(tl_out.value().epoch_switches, 0);
      ExpectSameEvents(qt_chan.events, qt_tl.events);
      EXPECT_FALSE(qt_chan.versioned);
      EXPECT_TRUE(qt_tl.versioned);
      ExpectDozePlusReadsEqualsLatency(qt_tl);
    }
  }
}

// Two-epoch timeline fixture with different subdivisions (and hence
// different cycle layouts, bucket sizes, and region numbering) on the two
// sides of the switch.
struct TwoEpochRig {
  // Heap-allocated so the timeline's borrowed channel pointers stay valid
  // when the rig is returned by value.
  std::unique_ptr<SpanRig> e0;
  std::unique_ptr<SpanRig> e1;
  BroadcastTimeline tl;
};

TwoEpochRig MakeTwoEpochRig(const LossOptions& loss, int64_t cycles0) {
  auto e0 = std::make_unique<SpanRig>(MakeSpanRig(40, 207, loss));
  auto e1 = std::make_unique<SpanRig>(MakeSpanRig(55, 208, loss));
  BroadcastTimeline tl =
      BroadcastTimeline::Create(
          {{&e0->channel, 0, cycles0}, {&e1->channel, 1, 1}})
          .value();
  return TwoEpochRig{std::move(e0), std::move(e1), std::move(tl)};
}

std::vector<ProbeTrace> ProbeBoth(const TwoEpochRig& rig, const Point& p) {
  return {rig.e0->tree.Probe(p).value(), rig.e1->tree.Probe(p).value()};
}

// Sweep arrivals across the epoch boundary and assert the protocol
// invariants: a completed query's epoch matches the span its last read
// fell in, switches stay within budget, never a wrong answer (the answer
// region always comes from the trace of the epoch the client ended in),
// and the energy accounting stays exact through switches.
TEST(BroadcastTimelineTest, EpochSwitchAdoptsNewEpoch) {
  // Coverage accumulates across the config sweep: the harsh configs (loss
  // 1.0 completes nothing) contribute invariant checks, the clean config
  // guarantees both rung exercises below.
  int switched_and_completed = 0;
  int adopted_at_probe = 0;
  for (const LossOptions& loss : LossConfigs()) {
    TwoEpochRig rig = MakeTwoEpochRig(loss, 2);
    const int64_t boundary = rig.tl.span_end(0);
    const double cycle0 = static_cast<double>(rig.e0->channel.cycle_packets());

    Rng rng(100);
    for (int q = 0; q < 300; ++q) {
      const Point p = test::UnambiguousQueryPoint(rig.e0->sub, &rng);
      const std::vector<ProbeTrace> traces = ProbeBoth(rig, p);
      // Arrivals concentrated in span 0's last cycle so many queries
      // straddle the boundary; some land past it entirely.
      const double arrival =
          static_cast<double>(boundary) - cycle0 +
          rng.Uniform(0.0, 1.5 * cycle0);
      const uint64_t stream = static_cast<uint64_t>(q);

      QueryTrace qt;
      auto out_r = rig.tl.Simulate(traces, arrival, stream, &qt);
      ASSERT_OK(out_r.status());
      const BroadcastChannel::QueryOutcome& out = out_r.value();

      EXPECT_TRUE(qt.versioned);
      EXPECT_EQ(qt.epoch, out.epoch);
      EXPECT_EQ(qt.epoch_switches, out.epoch_switches);
      EXPECT_LE(out.epoch_switches, loss.max_epoch_switches + 1);
      ExpectDozePlusReadsEqualsLatency(qt);

      int switch_events = 0;
      for (const TraceEvent& e : qt.events) {
        if (e.kind == TraceEventKind::kEpochSwitch) {
          ++switch_events;
          EXPECT_EQ(e.attempt, switch_events);
          EXPECT_EQ(e.packet, 1);  // only epoch 1 can be newly observed
        }
      }
      EXPECT_EQ(switch_events, out.epoch_switches);

      if (!out.unrecoverable) {
        // The answer belongs to the epoch whose packets the client last
        // trusted: the span containing the final read.
        const int64_t done =
            static_cast<int64_t>(std::llround(arrival + out.latency));
        EXPECT_EQ(out.epoch, rig.tl.span(rig.tl.SpanAt(done - 1)).epoch);
        if (out.epoch_switches > 0) ++switched_and_completed;
        if (out.epoch == 1 && out.epoch_switches == 0) ++adopted_at_probe;
      } else {
        EXPECT_NE(out.give_up, GiveUpStage::kNone);
      }
    }
  }
  // The sweep must actually exercise the rung: queries that switched and
  // still completed, and queries that tuned in past the boundary and
  // adopted epoch 1 at the probe without consuming a switch.
  EXPECT_GT(switched_and_completed, 0);
  EXPECT_GT(adopted_at_probe, 0);
}

// Budget 0: the first observed switch exhausts the rung. The query must
// give up with kEpochChurn — reporting the newly observed epoch, never a
// wrong answer — and queries that never see the boundary stay clean.
TEST(BroadcastTimelineTest, EpochChurnBudgetExhaustionGivesUp) {
  LossOptions loss;  // clean channel: churn is the only failure mode
  loss.max_epoch_switches = 0;
  TwoEpochRig rig = MakeTwoEpochRig(loss, 2);
  const int64_t boundary = rig.tl.span_end(0);
  const double cycle0 = static_cast<double>(rig.e0->channel.cycle_packets());

  Rng rng(101);
  int churned = 0;
  for (int q = 0; q < 200; ++q) {
    const Point p = test::UnambiguousQueryPoint(rig.e0->sub, &rng);
    const std::vector<ProbeTrace> traces = ProbeBoth(rig, p);
    const double arrival = static_cast<double>(boundary) - cycle0 +
                           rng.Uniform(0.0, cycle0);
    QueryTrace qt;
    auto out_r =
        rig.tl.Simulate(traces, arrival, static_cast<uint64_t>(q), &qt);
    ASSERT_OK(out_r.status());
    const BroadcastChannel::QueryOutcome& out = out_r.value();
    EXPECT_EQ(out.retries, 0);
    EXPECT_EQ(out.lost_packets, 0);
    EXPECT_EQ(out.corrupted_packets, 0);
    if (out.epoch_switches > 0) {
      ++churned;
      EXPECT_EQ(out.epoch_switches, 1);
      EXPECT_TRUE(out.unrecoverable);
      EXPECT_EQ(out.give_up, GiveUpStage::kEpochChurn);
      EXPECT_EQ(out.epoch, 1);  // the epoch that revealed the churn
      EXPECT_GT(out.latency, 0.0);
    } else {
      EXPECT_FALSE(out.unrecoverable);
    }
    ExpectDozePlusReadsEqualsLatency(qt);
  }
  EXPECT_GT(churned, 0);
}

// ---------------------------------------------------------------------------
// Wire format: the epoch stamp rides inside the CRC's coverage.

TEST(FrameEpochTest, EpochStampRoundTripsAndGates) {
  Rng rng(102);
  PacketBuffer packets(3, 32);
  for (size_t j = 0; j < packets.size_bytes(); ++j) {
    packets.data()[j] = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const auto frames = FramePackets(packets, 7);
  ASSERT_EQ(frames.num_packets(), packets.num_packets());
  ASSERT_EQ(frames.packet_bytes(), 32 + kFrameOverheadBytes);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    EXPECT_OK(VerifyFrame(frames.packet(i), frames.packet_bytes(), 7));
    EXPECT_EQ(FrameEpoch(frames.packet(i), frames.packet_bytes()), 7);
  }

  // Matching (or unchecked) expected epoch strips cleanly.
  auto match = UnframePackets(frames, 7);
  ASSERT_OK(match.status());
  EXPECT_EQ(match.value(), packets);
  auto unchecked = UnframePackets(frames);
  ASSERT_OK(unchecked.status());
  EXPECT_EQ(unchecked.value(), packets);

  // A CRC-valid frame from another epoch is version skew, not corruption.
  auto skew = UnframePackets(frames, 6);
  ASSERT_FALSE(skew.ok());
  EXPECT_EQ(skew.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(VerifyFrame(frames.packet(0), frames.packet_bytes(), 6).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FrameEpochTest, AnySingleBitFlipBeatsTheEpochCheck) {
  // Fault ordering contract: corruption is detected BEFORE the epoch
  // check, so a flipped bit anywhere in the frame — payload, epoch stamp,
  // or CRC — surfaces as kDataLoss regardless of the expected epoch.
  PacketBuffer packets(1, 32);
  std::fill_n(packets.data(), packets.size_bytes(), 0xA5);
  const auto clean = FramePackets(packets, 7);
  const size_t bits = clean.packet_bytes() * 8;
  for (size_t bit = 0; bit < bits; ++bit) {
    auto frames = clean;
    FlipBit(&frames, 0, bit);
    for (int expected : {-1, 6, 7}) {
      auto r = UnframePackets(frames, expected);
      ASSERT_FALSE(r.ok()) << "bit " << bit << " expected " << expected;
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
          << "bit " << bit << " expected " << expected;
    }
  }
}

// ---------------------------------------------------------------------------
// VersionedProgram: the rebuild-per-epoch server.

VersionedProgram::Options MakeProgramOptions() {
  VersionedProgram::Options opt;
  opt.service_area = workload::DefaultServiceArea();
  opt.channel.packet_capacity = 128;
  opt.tree.packet_capacity = 128;
  return opt;
}

std::vector<Point> MakeSites(int n, uint64_t seed) {
  Rng rng(seed);
  return workload::UniformPoints(n, workload::DefaultServiceArea(), &rng);
}

TEST(VersionedProgramTest, CommitMatchesColdRebuildBitForBit) {
  const auto options = MakeProgramOptions();
  const std::vector<Point> sites = MakeSites(30, 301);
  auto vp_r = VersionedProgram::Create(sites, options);
  ASSERT_OK(vp_r.status());
  VersionedProgram& vp = *vp_r.value();

  auto epoch0 = vp.Acquire();
  ASSERT_NE(epoch0, nullptr);
  EXPECT_EQ(epoch0->epoch, 0);
  EXPECT_EQ(epoch0->sites.size(), sites.size());
  EXPECT_EQ(vp.previous(), nullptr);

  // Queue a batch: one insert, one delete (of the site nearest sites[0]).
  const std::vector<SiteUpdate> batch = {
      SiteUpdate::Insert(MakeSites(1, 302)[0]),
      SiteUpdate::Delete(sites[0]),
  };
  for (const SiteUpdate& u : batch) vp.Enqueue(u);
  EXPECT_EQ(vp.pending(), 2u);

  auto committed_r = vp.CommitEpoch();
  ASSERT_OK(committed_r.status());
  const auto committed = committed_r.value();
  EXPECT_EQ(vp.pending(), 0u);
  EXPECT_EQ(committed->epoch, 1);
  EXPECT_EQ(vp.Acquire(), committed);
  EXPECT_EQ(vp.previous(), epoch0);  // last two epochs stay resident

  // The oracle: the published epoch must be byte-identical to a cold
  // rebuild on the same updated site set.
  auto expected_sites_r = VersionedProgram::ApplyUpdates(sites, batch);
  ASSERT_OK(expected_sites_r.status());
  auto cold_r =
      VersionedProgram::BuildEpoch(expected_sites_r.value(), options, 1);
  ASSERT_OK(cold_r.status());
  const auto& cold = *cold_r.value();

  EXPECT_EQ(committed->sites, cold.sites);
  EXPECT_EQ(committed->channel.cycle_packets(), cold.channel.cycle_packets());
  EXPECT_EQ(committed->program.epoch(), 1);
  ASSERT_EQ(committed->program.num_frames(), cold.program.num_frames());
  for (int64_t i = 0; i < cold.program.num_frames(); ++i) {
    const auto a = committed->program.frame(i);
    const auto b = cold.program.frame(i);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "frame " << i << " diverges from the cold rebuild";
  }

  // An empty commit still rolls the epoch (new stamp, same sites).
  auto empty_r = vp.CommitEpoch();
  ASSERT_OK(empty_r.status());
  EXPECT_EQ(empty_r.value()->epoch, 2);
  EXPECT_EQ(empty_r.value()->sites, committed->sites);
  EXPECT_EQ(vp.previous(), committed);
}

TEST(VersionedProgramTest, FailedCommitLeavesLiveEpochUntouched) {
  const auto options = MakeProgramOptions();
  const std::vector<Point> sites = MakeSites(20, 303);
  auto vp_r = VersionedProgram::Create(sites, options);
  ASSERT_OK(vp_r.status());
  VersionedProgram& vp = *vp_r.value();
  const auto live = vp.Acquire();

  // A duplicate site violates sub::kMinSiteSeparation in the Voronoi
  // build; the commit must fail, discard the batch, and leave the live
  // epoch untouched.
  vp.Enqueue(SiteUpdate::Insert(sites[3]));
  auto bad = vp.CommitEpoch();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(vp.Acquire(), live);
  EXPECT_EQ(vp.previous(), nullptr);
  EXPECT_EQ(vp.pending(), 0u);  // the poisoned batch is gone

  // The server recovers: a valid batch commits on the next boundary.
  vp.Enqueue(SiteUpdate::Insert(MakeSites(1, 304)[0]));
  auto good = vp.CommitEpoch();
  ASSERT_OK(good.status());
  EXPECT_EQ(good.value()->epoch, 1);
  EXPECT_EQ(good.value()->sites.size(), sites.size() + 1);
}

TEST(VersionedProgramTest, ApplyUpdatesEnforcesTheSiteFloor) {
  const std::vector<Point> three = MakeSites(3, 305);
  // Deleting below kMinSites is rejected; deleting from nothing too.
  EXPECT_FALSE(
      VersionedProgram::ApplyUpdates(three, {SiteUpdate::Delete(three[0])})
          .ok());
  EXPECT_FALSE(
      VersionedProgram::ApplyUpdates({}, {SiteUpdate::Delete({1, 1})}).ok());

  // Delete removes the nearest site (here: an exact match).
  const std::vector<Point> four = MakeSites(4, 306);
  auto r = VersionedProgram::ApplyUpdates(four, {SiteUpdate::Delete(four[2])});
  ASSERT_OK(r.status());
  ASSERT_EQ(r.value().size(), 3u);
  for (const Point& p : r.value()) {
    EXPECT_FALSE(p.x == four[2].x && p.y == four[2].y);
  }
}

// TSan target: readers acquire snapshots while the single writer commits.
// Readers never block, snapshots stay internally consistent, and the
// epoch sequence is monotone from any reader's point of view.
TEST(VersionedProgramTest, ConcurrentAcquireWhileCommitting) {
  const auto options = MakeProgramOptions();
  auto vp_r = VersionedProgram::Create(MakeSites(20, 307), options);
  ASSERT_OK(vp_r.status());
  VersionedProgram& vp = *vp_r.value();

  constexpr int kCommits = 5;
  const std::vector<Point> inserts = MakeSites(kCommits, 308);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&vp, &done] {
      uint16_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = vp.Acquire();
        ASSERT_NE(snap, nullptr);
        EXPECT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        // Touch immutable state across the swap: frame count and a frame
        // byte — TSan flags any rebuild racing a reader.
        EXPECT_GT(snap->program.num_frames(), 0);
        (void)snap->program.frame(0)[0];
        // previous() is loaded separately from Acquire(), so a commit may
        // land between the two loads — no cross-snapshot ordering can be
        // asserted, only that the resident arena stays readable.
        auto prev = vp.previous();
        if (prev != nullptr) {
          EXPECT_GT(prev->program.num_frames(), 0);
          (void)prev->program.frame(0)[0];
        }
      }
    });
  }
  for (int c = 0; c < kCommits; ++c) {
    vp.Enqueue(SiteUpdate::Insert(inserts[static_cast<size_t>(c)]));
    auto r = vp.CommitEpoch();
    ASSERT_OK(r.status());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(vp.Acquire()->epoch, kCommits);
  EXPECT_EQ(vp.previous()->epoch, kCommits - 1);
}

}  // namespace
}  // namespace dtree::bcast
