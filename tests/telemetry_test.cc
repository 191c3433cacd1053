// FleetTelemetry (broadcast/telemetry.h): the observability layer's two
// hard requirements pinned as tests.
//
//   1. Telemetry OFF is free of observable effect: FleetResult is
//      bit-identical with and without a telemetry sink attached (the
//      golden pin — attaching observers must not perturb the engine's
//      RNG draw order or arithmetic).
//   2. Telemetry ON is deterministic: the timeline JSONL, the flight
//      recorder dump and the Prometheus text are byte-identical at 1, 4
//      and 8 threads (per-shard accumulation + shard-ordered merge).
//
// Plus: sum-of-windows equals the engine's own run totals, the read
// heatmap balances against the window counters, unrecoverable queries
// leave black-box flight records that equal their trace lines (fleet,
// versioned fleet and the experiment adapter), TelemetryTraceSink gives the
// single-query experiment driver the same timeline schema, hand-built
// traces pin the window export byte for byte, and CycleProfiler
// attributes fleet index reads to D-tree levels.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "broadcast/trace.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

struct FleetFixture {
  sub::Subdivision sub;
  core::DTree tree;
};

FleetFixture MakeFixture(int regions, uint64_t seed) {
  sub::Subdivision sub = test::RandomVoronoi(regions, seed);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return {std::move(sub), std::move(tree).value()};
}

FleetOptions LossyFleetOptions() {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 2000;
  fopt.sim_cycles = 3.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 1234;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.15;
  fopt.loss.seed = 7;
  return fopt;
}

void ExpectBitIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.mean_latency, b.mean_latency);  // bitwise
  EXPECT_EQ(a.mean_tuning_total, b.mean_tuning_total);
  EXPECT_EQ(a.mean_retries, b.mean_retries);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_lost_packets, b.total_lost_packets);
  EXPECT_EQ(a.total_corrupted_packets, b.total_corrupted_packets);
  EXPECT_EQ(a.unrecoverable_queries, b.unrecoverable_queries);
  EXPECT_EQ(a.fallback_queries, b.fallback_queries);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  const Histogram* ha = a.metrics.FindHistogram(kLatencyHist);
  const Histogram* hb = b.metrics.FindHistogram(kLatencyHist);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->Sum(), hb->Sum());
  EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
}

/// The lines of a JSONL text.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t from = 0;
  for (size_t nl; (nl = text.find('\n', from)) != std::string::npos;
       from = nl + 1) {
    lines.push_back(text.substr(from, nl - from));
  }
  return lines;
}

/// A trace line's or flight record's top-level scalar `key` as written,
/// or "" when absent. Only the text before "events" is searched, so an
/// event's fields never match.
std::string TopField(const std::string& line, const std::string& key) {
  const std::string head = line.substr(0, line.find("\"events\": "));
  const std::string tag = "\"" + key + "\": ";
  const size_t at = head.find(tag);
  if (at == std::string::npos) return "";
  const size_t from = at + tag.size();
  return head.substr(from, head.find_first_of(",}", from) - from);
}

/// The "events" array of a trace line or flight record, as written (it
/// is the last field of both).
std::string EventsField(const std::string& line) {
  const std::string tag = "\"events\": ";
  const size_t from = line.find(tag) + tag.size();
  return line.substr(from, line.size() - 1 - from);
}

/// Counts the flight records in `flight` that are their query's trace
/// line in `traces`: the line with the same client (-1 when the line has
/// none) and q carries the same events array, byte for byte, and the
/// same counts. Reports the first record that is not.
int64_t RecordsThatAreTheirTraces(const std::string& flight,
                                  const std::string& traces) {
  std::map<std::pair<std::string, std::string>, std::string> by_query;
  for (const std::string& line : Lines(traces)) {
    const std::string client = TopField(line, "client");
    by_query[{client.empty() ? "-1" : client, TopField(line, "q")}] = line;
  }
  int64_t matched = 0;
  bool reported = false;
  for (const std::string& record : Lines(flight)) {
    const auto it =
        by_query.find({TopField(record, "client"), TopField(record, "q")});
    bool same = it != by_query.end() &&
                EventsField(record) == EventsField(it->second);
    for (const char* key : {"latency", "tuning", "retries", "lost",
                            "corrupted", "fallback", "epoch",
                            "epoch_switches"}) {
      same = same && TopField(record, key) == TopField(it->second, key);
    }
    if (same) {
      ++matched;
    } else if (!reported) {
      reported = true;
      ADD_FAILURE() << "flight record " << record << "\ntrace line "
                    << (it == by_query.end() ? "(none)" : it->second);
    }
  }
  return matched;
}

TEST(FleetTelemetryTest, AttachingTelemetryDoesNotPerturbFleetResult) {
  // The golden pin: an attached observer must be invisible to the
  // simulation itself — no RNG draws, no arithmetic reordering.
  FleetFixture f = MakeFixture(60, 901);
  FleetOptions fopt = LossyFleetOptions();
  auto bare = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_GT(bare.value().queries, 1000);

  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto observed = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  ExpectBitIdentical(bare.value(), observed.value());
  EXPECT_FALSE(telemetry.windows().empty());
}

TEST(FleetTelemetryTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  FleetFixture f = MakeFixture(60, 902);
  std::string timeline[3], flight[3], prom[3];
  int i = 0;
  for (int threads : {1, 4, 8}) {
    FleetOptions fopt = LossyFleetOptions();
    fopt.num_threads = threads;
    FleetTelemetry telemetry;
    fopt.telemetry = &telemetry;
    auto r = RunFleet(f.tree, f.sub, fopt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TelemetryTotals totals = TotalsFromFleet(r.value());
    timeline[i] = telemetry.TimelineJsonl("threads-test", &totals);
    flight[i] = telemetry.flight_records();
    prom[i] = telemetry.PrometheusText();
    ++i;
  }
  EXPECT_FALSE(timeline[0].empty());
  EXPECT_EQ(timeline[0], timeline[1]);
  EXPECT_EQ(timeline[0], timeline[2]);
  EXPECT_EQ(flight[0], flight[1]);
  EXPECT_EQ(flight[0], flight[2]);
  EXPECT_EQ(prom[0], prom[1]);
  EXPECT_EQ(prom[0], prom[2]);
}

TEST(FleetTelemetryTest, WindowSumsMatchEngineTotals) {
  // The invariant tools/telemetry_report.py --check enforces offline,
  // asserted here directly against the engine's FleetResult.
  FleetFixture f = MakeFixture(60, 903);
  FleetOptions fopt = LossyFleetOptions();
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FleetResult& fr = r.value();

  const TelemetryTotals t = telemetry.Totals();
  EXPECT_EQ(t.queries, fr.queries);
  EXPECT_EQ(t.sessions, fr.sessions);
  EXPECT_EQ(t.departures, fr.departures);
  EXPECT_EQ(t.retries, fr.total_retries);
  EXPECT_EQ(t.lost_packets, fr.total_lost_packets);
  EXPECT_EQ(t.corrupted_packets, fr.total_corrupted_packets);
  EXPECT_EQ(t.unrecoverable, fr.unrecoverable_queries);
  EXPECT_EQ(t.fallback, fr.fallback_queries);

  // Latency / tuning histograms hold one sample per completed query and
  // their summed packet counts match the engine's means times count.
  // The heatmap balances against the windowed read counters: every binned
  // packet is counted exactly once on each axis.
  using W = TelemetryWindow;
  uint64_t completed = 0, latency_count = 0, tuning_count = 0;
  uint64_t index_reads = 0, data_reads = 0;
  int64_t heat_index = 0, heat_data = 0;
  double latency_sum = 0.0;
  const size_t bins = static_cast<size_t>(telemetry.options().heatmap_bins);
  for (const auto& [w, win] : telemetry.windows()) {
    completed += win.counters[W::kCompleted];
    latency_count += win.latency.TotalCount();
    tuning_count += win.tuning.TotalCount();
    latency_sum += win.latency.Sum();
    index_reads += win.counters[W::kIndexReads];
    data_reads += win.counters[W::kDataReads];
    // Rows exist exactly in the windows that saw a read.
    const bool read =
        win.counters[W::kIndexReads] + win.counters[W::kDataReads] > 0;
    ASSERT_EQ(win.heat_index.size(), read ? bins : 0);
    ASSERT_EQ(win.heat_data.size(), read ? bins : 0);
    for (int64_t c : win.heat_index) heat_index += c;
    for (int64_t c : win.heat_data) heat_data += c;
  }
  EXPECT_EQ(static_cast<int64_t>(completed), fr.queries);
  EXPECT_EQ(static_cast<int64_t>(latency_count), fr.queries);
  EXPECT_EQ(static_cast<int64_t>(tuning_count), fr.queries);
  const Histogram* lat = fr.metrics.FindHistogram(kLatencyHist);
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(latency_sum, lat->Sum());
  EXPECT_EQ(heat_index, static_cast<int64_t>(index_reads));
  EXPECT_EQ(heat_data, static_cast<int64_t>(data_reads));
  EXPECT_GT(heat_index, 0);
  EXPECT_GT(heat_data, 0);
}

TEST(FleetTelemetryTest, UnrecoverableQueriesLeaveFlightRecords) {
  // Each record is its query's trace line: the same events, encoded the
  // same way, and the same counts. A run without a trace sink, where the
  // engine keeps one scratch trace per shard, writes the same records.
  FleetFixture f = MakeFixture(60, 904);
  FleetOptions fopt = LossyFleetOptions();
  fopt.loss.loss_rate = 0.45;  // brutal channel: retry budgets exhaust
  FleetTelemetry untraced;
  fopt.telemetry = &untraced;
  ASSERT_TRUE(RunFleet(f.tree, f.sub, fopt).ok());
  std::string traces;
  JsonlTraceSink sink(&traces);
  fopt.trace_sink = &sink;
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r.value().unrecoverable_queries, 0);
  EXPECT_EQ(telemetry.flight_record_count(),
            r.value().unrecoverable_queries);
  const std::string& flight = telemetry.flight_records();
  EXPECT_NE(flight.find("\"flight\": \"unrecoverable\""), std::string::npos);
  EXPECT_NE(flight.find("\"give_up\""), std::string::npos);
  EXPECT_NE(flight.find("\"events\": ["), std::string::npos);
  // One JSONL line per record.
  int64_t lines = 0;
  for (char ch : flight) lines += ch == '\n';
  EXPECT_EQ(lines, telemetry.flight_record_count());
  EXPECT_EQ(RecordsThatAreTheirTraces(flight, traces),
            telemetry.flight_record_count());
  EXPECT_EQ(untraced.flight_records(), flight);
}

TEST(FleetTelemetryTest, VersionedFlightRecordsAreTheirTraces) {
  const FleetFixture f0 = MakeFixture(40, 96);
  const FleetFixture f1 = MakeFixture(52, 97);
  const std::vector<FleetEpoch> epochs = {{&f0.tree, &f0.sub, 0, 2},
                                          {&f1.tree, &f1.sub, 1, 1}};
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 500;
  fopt.loss.loss_rate = 0.45;
  std::string traces;
  JsonlTraceSink sink(&traces);
  fopt.trace_sink = &sink;
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto r = RunFleetVersioned(epochs, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r.value().total_epoch_switches, 0);
  ASSERT_GT(telemetry.flight_record_count(), 0);
  EXPECT_NE(telemetry.flight_records().find("\"epoch_switches\""),
            std::string::npos);
  EXPECT_EQ(RecordsThatAreTheirTraces(telemetry.flight_records(), traces),
            telemetry.flight_record_count());
}

TEST(FleetTelemetryTest, MergeShardsIsIdempotent) {
  FleetFixture f = MakeFixture(40, 905);
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 300;
  fopt.loss.loss_rate = 0.45;  // some retry budgets exhaust: flight records
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  ASSERT_TRUE(RunFleet(f.tree, f.sub, fopt).ok());
  const std::string once = telemetry.TimelineJsonl();
  const std::string flight = telemetry.flight_records();
  const int64_t flight_count = telemetry.flight_record_count();
  EXPECT_GT(flight_count, 0);
  telemetry.MergeShards();  // RunFleet already merged; merging again
  telemetry.MergeShards();  // must rebuild, not double-count
  EXPECT_EQ(telemetry.TimelineJsonl(), once);
  EXPECT_EQ(telemetry.flight_records(), flight);
  EXPECT_EQ(telemetry.flight_record_count(), flight_count);
}

TEST(TelemetryTraceSinkTest, ExperimentTracesProduceConsistentTimeline) {
  // The single-query driver, fed through the trace adapter, must satisfy
  // the same sum-of-windows invariants (minus session lifecycle, which
  // experiment traces do not carry).
  auto ds = workload::MakeUniformDataset();
  ASSERT_TRUE(ds.ok());
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());

  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 500;
  opt.seed = 11;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.2;
  opt.loss.seed = 3;

  ChannelOptions copt;
  copt.packet_capacity = opt.packet_capacity;
  auto ch = BroadcastChannel::Create(tree.value().NumIndexPackets(),
                                     ds.value().subdivision.NumRegions(),
                                     copt);
  ASSERT_TRUE(ch.ok());

  FleetTelemetry telemetry;
  telemetry.Reset(ch.value().cycle_packets(), 1);
  TelemetryTraceSink sink(&telemetry);
  opt.trace_sink = &sink;
  auto r = RunExperiment(tree.value(), ds.value().subdivision, nullptr, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  telemetry.MergeShards();

  const TelemetryTotals t = telemetry.Totals();
  EXPECT_EQ(t.queries, static_cast<int64_t>(opt.num_queries));
  EXPECT_EQ(t.retries, r.value().total_retries);
  EXPECT_EQ(t.corrupted_packets, r.value().total_corrupted_packets);
  EXPECT_EQ(t.unrecoverable, r.value().unrecoverable_queries);
  EXPECT_EQ(t.fallback, r.value().fallback_queries);
  EXPECT_EQ(t.sessions, 0);  // no session lifecycle in experiment traces
  EXPECT_EQ(t.departures, 0);
  const std::string timeline = telemetry.TimelineJsonl("experiment");
  EXPECT_NE(timeline.find("\"meta\": \"fleet_telemetry\""),
            std::string::npos);
  EXPECT_NE(timeline.find("\"cell\": \"experiment\""), std::string::npos);
}

TEST(TelemetryTraceSinkTest, FlightRecordsAreTheirTraces) {
  // Through the trace adapter every record names the anonymous client -1
  // and the query's global index; it must still hold that query's events
  // only.
  const FleetFixture f = MakeFixture(60, 907);
  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 1500;
  opt.seed = 5;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.45;
  opt.loss.seed = 9;
  const BroadcastChannel ch =
      BroadcastChannel::Create(f.tree.NumIndexPackets(), f.sub.NumRegions(),
                               opt.channel_options())
          .value();
  FleetTelemetry telemetry;
  telemetry.Reset(ch.cycle_packets(), 1);
  TelemetryTraceSink tel_sink(&telemetry);
  std::string traces;
  JsonlTraceSink jsonl_sink(&traces);
  TeeTraceSink tee({&jsonl_sink, &tel_sink});
  opt.trace_sink = &tee;
  auto r = RunExperiment(f.tree, f.sub, nullptr, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  telemetry.MergeShards();
  ASSERT_GT(telemetry.flight_record_count(), 0);
  EXPECT_EQ(telemetry.flight_record_count(), r.value().unrecoverable_queries);
  EXPECT_NE(telemetry.flight_records().find("\"client\": -1,"),
            std::string::npos);
  EXPECT_EQ(RecordsThatAreTheirTraces(telemetry.flight_records(), traces),
            telemetry.flight_record_count());
}

// --- The window export, pinned with hand-built traces. ---
//
// Each trace goes through TelemetryTraceSink into a telemetry keyed to a
// 100-packet cycle with 4 heatmap bins, so window w covers packets
// [100w, 100w + 100) and bin b covers cycle positions [25b, 25b + 25).

TraceEvent Ev(TraceEventKind kind, int64_t pos, double dur = 0.0,
              int packet = -1) {
  TraceEvent e;
  e.kind = kind;
  e.pos = pos;
  e.dur = dur;
  e.packet = packet;
  return e;
}

QueryTrace Answered(uint64_t q, double arrival, double latency, int tuning,
                    std::vector<TraceEvent> events) {
  QueryTrace t;
  t.query_index = q;
  t.arrival = arrival;
  t.latency = latency;
  t.tuning_total = tuning;
  t.events = std::move(events);
  return t;
}

struct WindowExport {
  std::string timeline;
  std::string prom;
  std::string flight;
};

WindowExport ExportTraces(const std::vector<QueryTrace>& traces,
                          int num_shards = 1) {
  TelemetryOptions topt;
  topt.heatmap_bins = 4;
  FleetTelemetry telemetry(topt);
  telemetry.Reset(100, num_shards);
  TelemetryTraceSink sink(&telemetry);
  for (const QueryTrace& t : traces) sink.Consume(t);
  telemetry.MergeShards();
  return {telemetry.TimelineJsonl(), telemetry.PrometheusText(),
          telemetry.flight_records()};
}

// Probe at 71, doze over [72, 130), index read at 130, done at 131.
QueryTrace DozeAcrossABoundary() {
  using K = TraceEventKind;
  return Answered(0, 70.0, 61.0, 2,
                  {Ev(K::kProbe, 71), Ev(K::kDoze, 130, 58.0),
                   Ev(K::kIndexRead, 130, 0.0, 0)});
}

// Probe at 191, doze over [192, 198), a 4-packet bucket at 198..201.
QueryTrace BucketAcrossABoundary() {
  using K = TraceEventKind;
  return Answered(1, 190.5, 11.5, 5,
                  {Ev(K::kProbe, 191), Ev(K::kDoze, 198, 6.0),
                   Ev(K::kBucketRead, 198, 0.0, 4)});
}

// Probe at 11, doze over [12, 305) covering windows 1 and 2 whole,
// index read at 305.
QueryTrace DozeOverWholeWindows() {
  using K = TraceEventKind;
  return Answered(2, 10.25, 295.75, 2,
                  {Ev(K::kProbe, 11), Ev(K::kDoze, 305, 293.0),
                   Ev(K::kIndexRead, 305, 0.0, 0)});
}

// One query inside window 4: probe 421, index 440, bucket 455..456.
QueryTrace OneQueryInOneWindow() {
  using K = TraceEventKind;
  return Answered(3, 419.75, 37.25, 4,
                  {Ev(K::kProbe, 421), Ev(K::kDoze, 440, 18.0),
                   Ev(K::kIndexRead, 440, 0.0, 0), Ev(K::kDoze, 455, 14.0),
                   Ev(K::kBucketRead, 455, 0.0, 2)});
}

TEST(TelemetryWindowExportTest, DozeAcrossABoundarySplitsBetweenWindows) {
  const WindowExport out = ExportTraces({DozeAcrossABoundary()});
  EXPECT_EQ(out.timeline,
            "{\"meta\": \"fleet_telemetry\", \"window_packets\": 100, "
            "\"cycle_packets\": 100, \"heatmap_bins\": 4, \"windows\": 2, "
            "\"flight_records\": 0, \"totals\": {\"queries\": 1, "
            "\"sessions\": 0, \"departures\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"unrecoverable\": 0, "
            "\"fallback\": 0, \"epoch_switches\": 0}}\n"
            "{\"w\": 0, \"issued\": 1, \"completed\": 0, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 1, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 28, "
            "\"doze_count\": 1, \"inflight_min\": 1, \"inflight_max\": 1, "
            "\"latency\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"tuning\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"heatmap_index\": [0, 0, 1, 0], "
            "\"heatmap_data\": [0, 0, 0, 0]}\n"
            "{\"w\": 1, \"issued\": 0, \"completed\": 1, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 1, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 30, "
            "\"doze_count\": 1, \"inflight_min\": 0, \"inflight_max\": 0, "
            "\"latency\": {\"count\": 1, \"sum\": 61, \"min\": 61, "
            "\"max\": 61, \"p50\": 61, \"p95\": 61, \"p99\": 61}, "
            "\"tuning\": {\"count\": 1, \"sum\": 2, \"min\": 2, "
            "\"max\": 2, \"p50\": 2, \"p95\": 2, \"p99\": 2}, "
            "\"heatmap_index\": [0, 1, 0, 0], "
            "\"heatmap_data\": [0, 0, 0, 0]}\n");
  EXPECT_EQ(out.prom,
            "# TYPE fleet_queries_issued_total counter\n"
            "fleet_queries_issued_total 1\n"
            "# TYPE fleet_queries_completed_total counter\n"
            "fleet_queries_completed_total 1\n"
            "# TYPE fleet_unrecoverable_total counter\n"
            "fleet_unrecoverable_total 0\n"
            "# TYPE fleet_fallback_total counter\n"
            "fleet_fallback_total 0\n"
            "# TYPE fleet_retries_total counter\n"
            "fleet_retries_total 0\n"
            "# TYPE fleet_lost_packets_total counter\n"
            "fleet_lost_packets_total 0\n"
            "# TYPE fleet_corrupted_packets_total counter\n"
            "fleet_corrupted_packets_total 0\n"
            "# TYPE fleet_sessions_total counter\n"
            "fleet_sessions_total 0\n"
            "# TYPE fleet_departures_total counter\n"
            "fleet_departures_total 0\n"
            "# TYPE fleet_index_reads_total counter\n"
            "fleet_index_reads_total 2\n"
            "# TYPE fleet_data_reads_total counter\n"
            "fleet_data_reads_total 0\n"
            "# TYPE fleet_epoch_switches_total counter\n"
            "fleet_epoch_switches_total 0\n"
            "# TYPE fleet_latency_packets histogram\n"
            "fleet_latency_packets_bucket{le=\"64\"} 1\n"
            "fleet_latency_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_latency_packets_sum 61\n"
            "fleet_latency_packets_count 1\n"
            "# TYPE fleet_tuning_packets histogram\n"
            "fleet_tuning_packets_bucket{le=\"2.181015465\"} 1\n"
            "fleet_tuning_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_tuning_packets_sum 2\n"
            "fleet_tuning_packets_count 1\n"
            "# TYPE fleet_doze_packets histogram\n"
            "fleet_doze_packets_bucket{le=\"29.34412938\"} 1\n"
            "fleet_doze_packets_bucket{le=\"32\"} 2\n"
            "fleet_doze_packets_bucket{le=\"+Inf\"} 2\n"
            "fleet_doze_packets_sum 58\n"
            "fleet_doze_packets_count 2\n");
}

TEST(TelemetryWindowExportTest, BucketReadAcrossABoundaryCountsEachPacket) {
  const WindowExport out = ExportTraces({BucketAcrossABoundary()});
  EXPECT_EQ(out.timeline,
            "{\"meta\": \"fleet_telemetry\", \"window_packets\": 100, "
            "\"cycle_packets\": 100, \"heatmap_bins\": 4, \"windows\": 2, "
            "\"flight_records\": 0, \"totals\": {\"queries\": 1, "
            "\"sessions\": 0, \"departures\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"unrecoverable\": 0, "
            "\"fallback\": 0, \"epoch_switches\": 0}}\n"
            "{\"w\": 1, \"issued\": 1, \"completed\": 0, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 1, \"data_reads\": 2, "
            "\"epoch_switches\": 0, \"doze_packets\": 6, "
            "\"doze_count\": 1, \"inflight_min\": 1, \"inflight_max\": 1, "
            "\"latency\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"tuning\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"heatmap_index\": [0, 0, 0, 1], "
            "\"heatmap_data\": [0, 0, 0, 2]}\n"
            "{\"w\": 2, \"issued\": 0, \"completed\": 1, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 0, \"data_reads\": 2, "
            "\"epoch_switches\": 0, \"doze_packets\": 0, "
            "\"doze_count\": 0, \"inflight_min\": 0, \"inflight_max\": 0, "
            "\"latency\": {\"count\": 1, \"sum\": 11.5, \"min\": 11.5, "
            "\"max\": 11.5, \"p50\": 11.5, \"p95\": 11.5, \"p99\": 11.5}, "
            "\"tuning\": {\"count\": 1, \"sum\": 5, \"min\": 5, "
            "\"max\": 5, \"p50\": 5, \"p95\": 5, \"p99\": 5}, "
            "\"heatmap_index\": [0, 0, 0, 0], "
            "\"heatmap_data\": [2, 0, 0, 0]}\n");
  EXPECT_EQ(out.prom,
            "# TYPE fleet_queries_issued_total counter\n"
            "fleet_queries_issued_total 1\n"
            "# TYPE fleet_queries_completed_total counter\n"
            "fleet_queries_completed_total 1\n"
            "# TYPE fleet_unrecoverable_total counter\n"
            "fleet_unrecoverable_total 0\n"
            "# TYPE fleet_fallback_total counter\n"
            "fleet_fallback_total 0\n"
            "# TYPE fleet_retries_total counter\n"
            "fleet_retries_total 0\n"
            "# TYPE fleet_lost_packets_total counter\n"
            "fleet_lost_packets_total 0\n"
            "# TYPE fleet_corrupted_packets_total counter\n"
            "fleet_corrupted_packets_total 0\n"
            "# TYPE fleet_sessions_total counter\n"
            "fleet_sessions_total 0\n"
            "# TYPE fleet_departures_total counter\n"
            "fleet_departures_total 0\n"
            "# TYPE fleet_index_reads_total counter\n"
            "fleet_index_reads_total 1\n"
            "# TYPE fleet_data_reads_total counter\n"
            "fleet_data_reads_total 4\n"
            "# TYPE fleet_epoch_switches_total counter\n"
            "fleet_epoch_switches_total 0\n"
            "# TYPE fleet_latency_packets histogram\n"
            "fleet_latency_packets_bucket{le=\"12.3376866\"} 1\n"
            "fleet_latency_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_latency_packets_sum 11.5\n"
            "fleet_latency_packets_count 1\n"
            "# TYPE fleet_tuning_packets histogram\n"
            "fleet_tuning_packets_bucket{le=\"5.187358219\"} 1\n"
            "fleet_tuning_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_tuning_packets_sum 5\n"
            "fleet_tuning_packets_count 1\n"
            "# TYPE fleet_doze_packets histogram\n"
            "fleet_doze_packets_bucket{le=\"6.168843302\"} 1\n"
            "fleet_doze_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_doze_packets_sum 6\n"
            "fleet_doze_packets_count 1\n");
}

TEST(TelemetryWindowExportTest, WindowTouchedOnlyByADozeExportsZeroShapes) {
  // Windows 1 and 2 see nothing but the doze: zero counters, the zero
  // histogram shape, an empty gauge and `[]` heatmaps.
  const WindowExport out = ExportTraces({DozeOverWholeWindows()});
  EXPECT_EQ(out.timeline,
            "{\"meta\": \"fleet_telemetry\", \"window_packets\": 100, "
            "\"cycle_packets\": 100, \"heatmap_bins\": 4, \"windows\": 4, "
            "\"flight_records\": 0, \"totals\": {\"queries\": 1, "
            "\"sessions\": 0, \"departures\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"unrecoverable\": 0, "
            "\"fallback\": 0, \"epoch_switches\": 0}}\n"
            "{\"w\": 0, \"issued\": 1, \"completed\": 0, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 1, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 88, "
            "\"doze_count\": 1, \"inflight_min\": 1, \"inflight_max\": 1, "
            "\"latency\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"tuning\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"heatmap_index\": [1, 0, 0, 0], "
            "\"heatmap_data\": [0, 0, 0, 0]}\n"
            "{\"w\": 1, \"issued\": 0, \"completed\": 0, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 0, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 100, "
            "\"doze_count\": 1, \"inflight_min\": 0, \"inflight_max\": 0, "
            "\"latency\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"tuning\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"heatmap_index\": [], \"heatmap_data\": []}\n"
            "{\"w\": 2, \"issued\": 0, \"completed\": 0, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 0, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 100, "
            "\"doze_count\": 1, \"inflight_min\": 0, \"inflight_max\": 0, "
            "\"latency\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"tuning\": {\"count\": 0, \"sum\": 0, \"min\": 0, "
            "\"max\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0}, "
            "\"heatmap_index\": [], \"heatmap_data\": []}\n"
            "{\"w\": 3, \"issued\": 0, \"completed\": 1, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 1, \"data_reads\": 0, "
            "\"epoch_switches\": 0, \"doze_packets\": 5, "
            "\"doze_count\": 1, \"inflight_min\": 0, \"inflight_max\": 0, "
            "\"latency\": {\"count\": 1, \"sum\": 295.75, "
            "\"min\": 295.75, \"max\": 295.75, \"p50\": 295.75, "
            "\"p95\": 295.75, \"p99\": 295.75}, "
            "\"tuning\": {\"count\": 1, \"sum\": 2, \"min\": 2, "
            "\"max\": 2, \"p50\": 2, \"p95\": 2, \"p99\": 2}, "
            "\"heatmap_index\": [1, 0, 0, 0], "
            "\"heatmap_data\": [0, 0, 0, 0]}\n");
  EXPECT_EQ(out.prom,
            "# TYPE fleet_queries_issued_total counter\n"
            "fleet_queries_issued_total 1\n"
            "# TYPE fleet_queries_completed_total counter\n"
            "fleet_queries_completed_total 1\n"
            "# TYPE fleet_unrecoverable_total counter\n"
            "fleet_unrecoverable_total 0\n"
            "# TYPE fleet_fallback_total counter\n"
            "fleet_fallback_total 0\n"
            "# TYPE fleet_retries_total counter\n"
            "fleet_retries_total 0\n"
            "# TYPE fleet_lost_packets_total counter\n"
            "fleet_lost_packets_total 0\n"
            "# TYPE fleet_corrupted_packets_total counter\n"
            "fleet_corrupted_packets_total 0\n"
            "# TYPE fleet_sessions_total counter\n"
            "fleet_sessions_total 0\n"
            "# TYPE fleet_departures_total counter\n"
            "fleet_departures_total 0\n"
            "# TYPE fleet_index_reads_total counter\n"
            "fleet_index_reads_total 2\n"
            "# TYPE fleet_data_reads_total counter\n"
            "fleet_data_reads_total 0\n"
            "# TYPE fleet_epoch_switches_total counter\n"
            "fleet_epoch_switches_total 0\n"
            "# TYPE fleet_latency_packets histogram\n"
            "fleet_latency_packets_bucket{le=\"304.4370214\"} 1\n"
            "fleet_latency_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_latency_packets_sum 295.75\n"
            "fleet_latency_packets_count 1\n"
            "# TYPE fleet_tuning_packets histogram\n"
            "fleet_tuning_packets_bucket{le=\"2.181015465\"} 1\n"
            "fleet_tuning_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_tuning_packets_sum 2\n"
            "fleet_tuning_packets_count 1\n"
            "# TYPE fleet_doze_packets histogram\n"
            "fleet_doze_packets_bucket{le=\"5.187358219\"} 1\n"
            "fleet_doze_packets_bucket{le=\"90.50966799\"} 2\n"
            "fleet_doze_packets_bucket{le=\"107.6347412\"} 4\n"
            "fleet_doze_packets_bucket{le=\"+Inf\"} 4\n"
            "fleet_doze_packets_sum 293\n"
            "fleet_doze_packets_count 4\n");
}

TEST(TelemetryWindowExportTest, OneCompletedQueryHasItsLatencyAsPercentiles) {
  const WindowExport out = ExportTraces({OneQueryInOneWindow()});
  EXPECT_EQ(out.timeline,
            "{\"meta\": \"fleet_telemetry\", \"window_packets\": 100, "
            "\"cycle_packets\": 100, \"heatmap_bins\": 4, \"windows\": 1, "
            "\"flight_records\": 0, \"totals\": {\"queries\": 1, "
            "\"sessions\": 0, \"departures\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"unrecoverable\": 0, "
            "\"fallback\": 0, \"epoch_switches\": 0}}\n"
            "{\"w\": 4, \"issued\": 1, \"completed\": 1, "
            "\"unrecoverable\": 0, \"fallback\": 0, \"retries\": 0, "
            "\"lost\": 0, \"corrupted\": 0, \"arrivals\": 0, "
            "\"departures\": 0, \"index_reads\": 2, \"data_reads\": 2, "
            "\"epoch_switches\": 0, \"doze_packets\": 32, "
            "\"doze_count\": 2, \"inflight_min\": 0, \"inflight_max\": 1, "
            "\"latency\": {\"count\": 1, \"sum\": 37.25, \"min\": 37.25, "
            "\"max\": 37.25, \"p50\": 37.25, \"p95\": 37.25, "
            "\"p99\": 37.25}, "
            "\"tuning\": {\"count\": 1, \"sum\": 4, \"min\": 4, "
            "\"max\": 4, \"p50\": 4, \"p95\": 4, \"p99\": 4}, "
            "\"heatmap_index\": [1, 1, 0, 0], "
            "\"heatmap_data\": [0, 0, 2, 0]}\n");
  EXPECT_EQ(out.prom,
            "# TYPE fleet_queries_issued_total counter\n"
            "fleet_queries_issued_total 1\n"
            "# TYPE fleet_queries_completed_total counter\n"
            "fleet_queries_completed_total 1\n"
            "# TYPE fleet_unrecoverable_total counter\n"
            "fleet_unrecoverable_total 0\n"
            "# TYPE fleet_fallback_total counter\n"
            "fleet_fallback_total 0\n"
            "# TYPE fleet_retries_total counter\n"
            "fleet_retries_total 0\n"
            "# TYPE fleet_lost_packets_total counter\n"
            "fleet_lost_packets_total 0\n"
            "# TYPE fleet_corrupted_packets_total counter\n"
            "fleet_corrupted_packets_total 0\n"
            "# TYPE fleet_sessions_total counter\n"
            "fleet_sessions_total 0\n"
            "# TYPE fleet_departures_total counter\n"
            "fleet_departures_total 0\n"
            "# TYPE fleet_index_reads_total counter\n"
            "fleet_index_reads_total 2\n"
            "# TYPE fleet_data_reads_total counter\n"
            "fleet_data_reads_total 2\n"
            "# TYPE fleet_epoch_switches_total counter\n"
            "fleet_epoch_switches_total 0\n"
            "# TYPE fleet_latency_packets histogram\n"
            "fleet_latency_packets_bucket{le=\"38.05462768\"} 1\n"
            "fleet_latency_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_latency_packets_sum 37.25\n"
            "fleet_latency_packets_count 1\n"
            "# TYPE fleet_tuning_packets histogram\n"
            "fleet_tuning_packets_bucket{le=\"4.362030931\"} 1\n"
            "fleet_tuning_packets_bucket{le=\"+Inf\"} 1\n"
            "fleet_tuning_packets_sum 4\n"
            "fleet_tuning_packets_count 1\n"
            "# TYPE fleet_doze_packets histogram\n"
            "fleet_doze_packets_bucket{le=\"14.67206469\"} 1\n"
            "fleet_doze_packets_bucket{le=\"19.02731384\"} 2\n"
            "fleet_doze_packets_bucket{le=\"+Inf\"} 2\n"
            "fleet_doze_packets_sum 32\n"
            "fleet_doze_packets_count 2\n");
}

TEST(TelemetryWindowExportTest, IdleShardMergesAsIdentity) {
  // The trace sink records into shard 0; an extra, idle shard must not
  // move a byte of any export.
  const std::vector<QueryTrace> traces = {
      DozeAcrossABoundary(), BucketAcrossABoundary(), DozeOverWholeWindows(),
      OneQueryInOneWindow()};
  const WindowExport one = ExportTraces(traces, 1);
  const WindowExport two = ExportTraces(traces, 2);
  EXPECT_EQ(two.timeline, one.timeline);
  EXPECT_EQ(two.prom, one.prom);
  EXPECT_EQ(two.flight, one.flight);
  EXPECT_NE(one.timeline.find("\"windows\": 5"), std::string::npos);
}

TEST(CycleProfilerFleetTest, AttributesFleetIndexReadsToTreeLevels) {
  // Satellite: the cycle profiler consumes the fleet's replayed trace
  // stream and attributes index-packet reads to D-tree levels, exactly
  // as it does for the single-query driver.
  FleetFixture f = MakeFixture(80, 906);
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 500;

  ChannelOptions copt;
  copt.packet_capacity = fopt.packet_capacity;
  auto ch = BroadcastChannel::Create(f.tree.NumIndexPackets(),
                                     f.sub.NumRegions(), copt);
  ASSERT_TRUE(ch.ok());
  CycleProfiler profiler(ch.value().cycle_packets());
  fopt.trace_sink = &profiler;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(profiler.queries()), r.value().queries);
  EXPECT_GT(profiler.latency_hist().TotalCount(), 0u);
  int64_t level_total = 0;
  for (int64_t c : profiler.level_reads()) level_total += c;
  EXPECT_GT(level_total, 0);  // D-tree probes annotate their path
  int64_t awake = 0;
  for (int64_t c : profiler.position_reads()) awake += c;
  EXPECT_GT(awake, 0);
}

}  // namespace
}  // namespace dtree::bcast
