// Observability layer: trace events must account exactly for the
// simulated protocol (reads + dozes == latency), tracing must never
// change an outcome bit, the JSONL stream must be identical for every
// thread count, and the cycle profiler must attribute every index read.

#include <cmath>
#include <string>
#include <vector>

#include "broadcast/experiment.h"
#include "broadcast/trace.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

/// Sums what the events claim happened.
struct EventTally {
  int probe_reads = 0;
  int index_reads = 0;
  int bucket_reads = 0;
  int losses = 0;
  int retunes = 0;
  int corruptions = 0;
  int fallback_scans = 0;
  int fallback_listened = 0;
  double doze = 0.0;
  int annotated_index_reads = 0;
};

EventTally Tally(const QueryTrace& qt) {
  EventTally t;
  for (const TraceEvent& e : qt.events) {
    switch (e.kind) {
      case TraceEventKind::kProbe:
        ++t.probe_reads;
        break;
      case TraceEventKind::kDoze:
        EXPECT_GT(e.dur, 0.0);
        t.doze += e.dur;
        break;
      case TraceEventKind::kIndexRead:
        ++t.index_reads;
        if (e.depth >= 0) ++t.annotated_index_reads;
        break;
      case TraceEventKind::kBucketRead:
        EXPECT_GE(e.packet, 1);
        t.bucket_reads += e.packet;
        break;
      case TraceEventKind::kLoss:
        ++t.losses;
        break;
      case TraceEventKind::kRetune:
        EXPECT_GE(e.attempt, 1);
        ++t.retunes;
        break;
      case TraceEventKind::kCorruption:
        ++t.corruptions;
        break;
      case TraceEventKind::kFallbackScan:
        EXPECT_GE(e.packet, 0);
        EXPECT_GE(e.attempt, 0);
        ++t.fallback_scans;
        t.fallback_listened += e.packet;
        break;
      case TraceEventKind::kEpochSwitch:
        ADD_FAILURE() << "single-epoch traces never switch";
        break;
      case TraceEventKind::kCacheHit:
        ADD_FAILURE() << "cacheless traces never hit a region cache";
        break;
    }
  }
  return t;
}

class TraceChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sub_ = test::RandomVoronoi(60, 321);
    core::DTree::Options topt;
    topt.packet_capacity = 128;
    auto tree = core::DTree::Build(sub_, topt);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::make_unique<core::DTree>(std::move(tree).value());
    ChannelOptions copt;
    copt.packet_capacity = 128;
    auto ch = BroadcastChannel::Create(tree_->NumIndexPackets(),
                                       sub_.NumRegions(), copt);
    ASSERT_TRUE(ch.ok()) << ch.status().ToString();
    channel_ = std::make_unique<BroadcastChannel>(std::move(ch).value());
  }

  sub::Subdivision sub_{};
  std::unique_ptr<core::DTree> tree_;
  std::unique_ptr<BroadcastChannel> channel_;
};

TEST_F(TraceChannelTest, EventsAccountForEveryPacketAndDoze) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const geom::Point p = test::UnambiguousQueryPoint(sub_, &rng);
    auto probe = tree_->Probe(p);
    ASSERT_TRUE(probe.ok());
    const double arrival = rng.Uniform(
        0.0, static_cast<double>(channel_->cycle_packets()));
    QueryTrace qt;
    auto out = channel_->Simulate(probe.value(), arrival, 0, &qt);
    ASSERT_TRUE(out.ok());
    const auto& o = out.value();

    const EventTally t = Tally(qt);
    EXPECT_EQ(t.probe_reads, o.tuning_probe);
    EXPECT_EQ(t.index_reads, o.tuning_index);
    EXPECT_EQ(t.bucket_reads, o.tuning_data);
    EXPECT_EQ(t.losses, o.lost_packets);
    EXPECT_EQ(t.retunes, o.retries);
    // Every awake packet and every doze interval is accounted: their sum
    // is exactly the access latency.
    EXPECT_NEAR(t.doze + o.tuning_total(), o.latency, 1e-6);
    // D-tree probes annotate their full path.
    EXPECT_EQ(t.annotated_index_reads, t.index_reads);
    // Summary mirror.
    EXPECT_EQ(qt.latency, o.latency);
    EXPECT_EQ(qt.tuning_total, o.tuning_total());
    EXPECT_EQ(qt.retries, o.retries);
    EXPECT_EQ(qt.unrecoverable, o.unrecoverable);
  }
}

TEST_F(TraceChannelTest, EventsAccountUnderLoss) {
  LossOptions loss;
  loss.model = LossModel::kIid;
  loss.loss_rate = 0.15;
  loss.seed = 9;
  ChannelOptions copt;
  copt.packet_capacity = 128;
  copt.loss = loss;
  auto ch_r = BroadcastChannel::Create(tree_->NumIndexPackets(),
                                       sub_.NumRegions(), copt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();

  Rng rng(6);
  int total_losses = 0;
  for (int i = 0; i < 500; ++i) {
    const geom::Point p = test::UnambiguousQueryPoint(sub_, &rng);
    auto probe = tree_->Probe(p);
    ASSERT_TRUE(probe.ok());
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    QueryTrace qt;
    auto out = ch.Simulate(probe.value(), arrival,
                           static_cast<uint64_t>(i), &qt);
    ASSERT_TRUE(out.ok());
    const auto& o = out.value();
    const EventTally t = Tally(qt);
    EXPECT_EQ(t.probe_reads, o.tuning_probe);
    EXPECT_EQ(t.index_reads, o.tuning_index);
    EXPECT_EQ(t.bucket_reads, o.tuning_data);
    EXPECT_EQ(t.losses, o.lost_packets);
    EXPECT_EQ(t.retunes, o.retries);
    EXPECT_NEAR(t.doze + o.tuning_total(), o.latency, 1e-6);
    total_losses += t.losses;
  }
  EXPECT_GT(total_losses, 0) << "loss model never fired at 15%";
}

TEST_F(TraceChannelTest, TracingDoesNotChangeTheOutcome) {
  LossOptions loss;
  loss.model = LossModel::kIid;
  loss.loss_rate = 0.1;
  loss.seed = 4;
  ChannelOptions copt;
  copt.packet_capacity = 128;
  copt.loss = loss;
  auto ch_r = BroadcastChannel::Create(tree_->NumIndexPackets(),
                                       sub_.NumRegions(), copt);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const geom::Point p = test::UnambiguousQueryPoint(sub_, &rng);
    auto probe = tree_->Probe(p);
    ASSERT_TRUE(probe.ok());
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    auto plain = ch.Simulate(probe.value(), arrival,
                             static_cast<uint64_t>(i));
    QueryTrace qt;
    auto traced = ch.Simulate(probe.value(), arrival,
                              static_cast<uint64_t>(i), &qt);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(traced.ok());
    EXPECT_EQ(plain.value().latency, traced.value().latency);
    EXPECT_EQ(plain.value().tuning_probe, traced.value().tuning_probe);
    EXPECT_EQ(plain.value().tuning_index, traced.value().tuning_index);
    EXPECT_EQ(plain.value().tuning_data, traced.value().tuning_data);
    EXPECT_EQ(plain.value().retries, traced.value().retries);
    EXPECT_EQ(plain.value().lost_packets, traced.value().lost_packets);
    EXPECT_EQ(plain.value().unrecoverable, traced.value().unrecoverable);
  }
}

TEST(TraceJsonTest, FormatsAndEscapes) {
  QueryTrace qt;
  qt.query_index = 3;
  qt.x = 1.5;
  qt.y = -2.25;
  qt.region = 7;
  qt.arrival = 10.5;
  qt.latency = 12.5;
  qt.tuning_total = 3;
  TraceEvent doze;
  doze.kind = TraceEventKind::kDoze;
  doze.pos = 11;
  doze.dur = 0.5;
  qt.events.push_back(doze);
  TraceEvent read;
  read.kind = TraceEventKind::kIndexRead;
  read.pos = 11;
  read.packet = 4;
  read.node = 9;
  read.depth = 2;
  qt.events.push_back(read);
  const std::string line = FormatQueryTraceJson(qt, "a\"b\\c");
  EXPECT_NE(line.find("\"q\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"cell\": \"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(line.find("{\"t\": \"doze\", \"pos\": 11, \"dur\": 0.5}"),
            std::string::npos);
  EXPECT_NE(line.find("{\"t\": \"index\", \"pos\": 11, \"pkt\": 4, "
                      "\"node\": 9, \"depth\": 2}"),
            std::string::npos);

  std::string buf;
  JsonlTraceSink sink(&buf);
  sink.set_label("a\"b\\c");
  sink.Consume(qt);
  EXPECT_EQ(buf, line + "\n");
  EXPECT_EQ(sink.lines_written(), 1u);
}

/// JSONL stream is keyed and ordered by global query index, identical for
/// every thread count — the acceptance criterion for tracing enabled.
TEST(TraceExperimentTest, JsonlIdenticalAcrossThreadCounts) {
  const sub::Subdivision sub = test::RandomVoronoi(40, 642);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  auto run = [&](int threads, std::string* out) {
    JsonlTraceSink sink(out);
    sink.set_label("cell");
    ExperimentOptions opt;
    opt.packet_capacity = 256;
    opt.num_queries = 4000;
    opt.seed = 17;
    opt.num_threads = threads;
    opt.loss.model = LossModel::kIid;  // include loss/retune events
    opt.loss.loss_rate = 0.05;
    opt.loss.seed = 18;
    opt.trace_sink = &sink;
    auto res = RunExperiment(tree.value(), sub, nullptr, opt);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  };

  std::string one, four, eight;
  run(1, &one);
  run(4, &four);
  run(8, &eight);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);

  // Ordered by global query index: q strictly increases line by line.
  size_t start = 0;
  long long prev = -1;
  int lines = 0;
  while (start < one.size()) {
    const size_t eol = one.find('\n', start);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = one.substr(start, eol - start);
    const size_t qpos = line.find("{\"q\": ");
    ASSERT_EQ(qpos, 0u) << line;
    const long long q = std::atoll(line.c_str() + 6);
    EXPECT_EQ(q, prev + 1);
    prev = q;
    ++lines;
    start = eol + 1;
  }
  EXPECT_EQ(lines, 4000);
}

TEST(TraceExperimentTest, CycleProfilerAttributesEveryIndexRead) {
  const sub::Subdivision sub = test::RandomVoronoi(60, 643);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  ChannelOptions copt;
  copt.packet_capacity = 256;
  auto ch = BroadcastChannel::Create(tree.value().NumIndexPackets(),
                                     sub.NumRegions(), copt);
  ASSERT_TRUE(ch.ok());

  CycleProfiler profiler(ch.value().cycle_packets(), 8);
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 5000;
  opt.seed = 23;
  opt.trace_sink = &profiler;
  auto res = RunExperiment(tree.value(), sub, nullptr, opt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  EXPECT_EQ(profiler.queries(), 5000u);
  // The profiler's distributions agree with the driver's aggregates. The
  // profiler sums latencies in global query order while the driver sums
  // per shard and merges, so the fractional latency mean matches only up
  // to FP association; integer-valued tuning sums are exact either way.
  EXPECT_NEAR(profiler.latency_hist().Mean(), res.value().mean_latency,
              1e-9 * res.value().mean_latency);
  EXPECT_EQ(profiler.latency_hist().Min(), res.value().min_latency);
  EXPECT_EQ(profiler.latency_hist().Max(), res.value().max_latency);
  EXPECT_DOUBLE_EQ(profiler.tuning_hist().Mean(),
                   res.value().mean_tuning_total);

  // Every index read is attributed to a D-tree level, none unknown, and
  // the per-level counts add up to the driver's tuning_index total.
  EXPECT_EQ(profiler.unattributed_reads(), 0);
  int64_t level_total = 0;
  for (int64_t c : profiler.level_reads()) level_total += c;
  EXPECT_EQ(static_cast<double>(level_total),
            res.value().mean_tuning_index * 5000);
  ASSERT_FALSE(profiler.level_reads().empty());
  // The root level is read by every query.
  EXPECT_EQ(profiler.level_reads()[0], 5000);

  // Awake-packet position bins cover exactly the total tuning packets.
  int64_t awake = 0;
  for (int64_t c : profiler.position_reads()) awake += c;
  EXPECT_EQ(static_cast<double>(awake),
            res.value().mean_tuning_total * 5000);
}

TEST(TraceExperimentTest, HistogramPercentilesIndependentOfThreads) {
  const sub::Subdivision sub = test::RandomVoronoi(50, 644);
  core::DTree::Options topt;
  topt.packet_capacity = 128;
  auto tree = core::DTree::Build(sub, topt);
  ASSERT_TRUE(tree.ok());

  auto run = [&](int threads) {
    ExperimentOptions opt;
    opt.packet_capacity = 128;
    opt.num_queries = 8000;
    opt.seed = 31;
    opt.num_threads = threads;
    auto res = RunExperiment(tree.value(), sub, nullptr, opt);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return std::move(res).value();
  };
  const ExperimentResult a = run(1);
  const ExperimentResult b = run(8);
  for (const char* name :
       {kLatencyHist, kTuningIndexHist, kTuningTotalHist, kRetriesHist}) {
    const Histogram* ha = a.metrics.FindHistogram(name);
    const Histogram* hb = b.metrics.FindHistogram(name);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(ha->Percentile(p), hb->Percentile(p)) << name;
    }
    EXPECT_EQ(ha->Min(), hb->Min()) << name;
    EXPECT_EQ(ha->Max(), hb->Max()) << name;
  }
}

}  // namespace
}  // namespace dtree::bcast
