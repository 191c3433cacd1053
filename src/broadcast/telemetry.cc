#include "broadcast/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "broadcast/fleet.h"
#include "common/check.h"

namespace dtree::bcast {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  DTREE_DCHECK(n >= 0 && n < static_cast<int>(sizeof(buf)));
  out->append(buf, static_cast<size_t>(std::max(n, 0)));
}

/// Escapes a label for embedding in a JSON string (same contract as the
/// trace writer: labels are cell ids, printable ASCII, but quotes and
/// backslashes must not break the line format).
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Per-window histogram summary object: {"count": …, "sum": …, "min": …,
/// "max": …, "p50": …, "p95": …, "p99": …}. An absent histogram writes
/// the all-zero shape so every window line carries the same keys.
void AppendHistJson(std::string* out, const char* key, const Histogram* h) {
  AppendF(out, ", \"%s\": {\"count\": %" PRIu64, key,
          h == nullptr ? 0 : h->TotalCount());
  if (h == nullptr || h->empty()) {
    out->append(
        ", \"sum\": 0, \"min\": 0, \"max\": 0, \"p50\": 0, \"p95\": 0, "
        "\"p99\": 0}");
    return;
  }
  AppendF(out, ", \"sum\": %.10g, \"min\": %.10g, \"max\": %.10g", h->Sum(),
          h->Min(), h->Max());
  AppendF(out, ", \"p50\": %.10g, \"p95\": %.10g, \"p99\": %.10g}",
          h->Percentile(0.50), h->Percentile(0.95), h->Percentile(0.99));
}

void AppendInt64Array(std::string* out, const std::vector<int64_t>& v) {
  out->push_back('[');
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendF(out, "%lld", static_cast<long long>(v[i]));
  }
  out->push_back(']');
}

void AppendTotalsJson(std::string* out, const TelemetryTotals& t) {
  AppendF(out, "{\"queries\": %lld, \"sessions\": %lld, \"departures\": %lld",
          static_cast<long long>(t.queries),
          static_cast<long long>(t.sessions),
          static_cast<long long>(t.departures));
  AppendF(out, ", \"retries\": %lld, \"lost\": %lld, \"corrupted\": %lld",
          static_cast<long long>(t.retries),
          static_cast<long long>(t.lost_packets),
          static_cast<long long>(t.corrupted_packets));
  AppendF(out, ", \"unrecoverable\": %lld, \"fallback\": %lld",
          static_cast<long long>(t.unrecoverable),
          static_cast<long long>(t.fallback));
  AppendF(out, ", \"epoch_switches\": %lld",
          static_cast<long long>(t.epoch_switches));
  if (t.cache) {
    AppendF(out,
            ", \"cache_hits\": %lld, \"cache_misses\": %lld, "
            "\"cache_evictions\": %lld, \"cache_invalidations\": %lld",
            static_cast<long long>(t.cache_hits),
            static_cast<long long>(t.cache_misses),
            static_cast<long long>(t.cache_evictions),
            static_cast<long long>(t.cache_invalidations));
  }
  out->push_back('}');
}

/// Folds the named per-window histograms into one run-total histogram,
/// in ascending window order (deterministic sums).
Histogram FoldWindows(const TimeSeries& series, const std::string& name) {
  Histogram total;
  const auto it = series.histograms().find(name);
  if (it == series.histograms().end()) return total;
  for (const auto& [window, h] : it->second) total.Merge(h);
  return total;
}

void AppendPromCounter(std::string* out, const char* name, uint64_t value) {
  AppendF(out, "# TYPE %s counter\n%s %" PRIu64 "\n", name, name, value);
}

/// Prometheus histogram exposition from a log-bucketed Histogram:
/// cumulative bucket counts at each non-empty bucket's upper bound, then
/// the mandatory +Inf / _sum / _count triple.
void AppendPromHistogram(std::string* out, const char* name,
                         const Histogram& h) {
  AppendF(out, "# TYPE %s histogram\n", name);
  uint64_t cumulative = 0;
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    const uint64_t c = h.BucketCount(i);
    if (c == 0) continue;
    cumulative += c;
    AppendF(out, "%s_bucket{le=\"%.10g\"} %" PRIu64 "\n", name,
            Histogram::BucketUpper(i), cumulative);
  }
  AppendF(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, h.TotalCount());
  AppendF(out, "%s_sum %.10g\n", name, h.Sum());
  AppendF(out, "%s_count %" PRIu64 "\n", name, h.TotalCount());
}

}  // namespace

TelemetryTotals TotalsFromFleet(const FleetResult& result) {
  TelemetryTotals t;
  t.queries = result.queries;
  t.sessions = result.sessions;
  t.departures = result.departures;
  t.retries = result.total_retries;
  t.lost_packets = result.total_lost_packets;
  t.corrupted_packets = result.total_corrupted_packets;
  t.unrecoverable = result.unrecoverable_queries;
  t.fallback = result.fallback_queries;
  t.epoch_switches = result.total_epoch_switches;
  t.cache = result.cache_enabled;
  t.cache_hits = result.cache_hits;
  t.cache_misses = result.cache_misses;
  t.cache_evictions = result.cache_evictions;
  t.cache_invalidations = result.cache_invalidations;
  return t;
}

TelemetryShard::TelemetryShard(double window_width, int64_t cycle_packets,
                               int bins, int ring_capacity)
    : series_(window_width), cycle_packets_(cycle_packets), bins_(bins) {
  DTREE_CHECK(cycle_packets > 0);
  DTREE_CHECK(bins > 0);
  DTREE_CHECK(ring_capacity >= 0);
  ring_.resize(static_cast<size_t>(ring_capacity));
}

Counter* TelemetryShard::Cnt(CachedCounter* slot, const char* name,
                             int64_t window) {
  if (slot->window != window) {
    slot->c = series_.counter(name, window);
    slot->window = window;
  }
  return slot->c;
}

Histogram* TelemetryShard::Hist(CachedHistogram* slot, const char* name,
                                int64_t window) {
  if (slot->window != window) {
    slot->h = series_.histogram(name, window);
    slot->window = window;
  }
  return slot->h;
}

HeatmapRow* TelemetryShard::Row(int64_t window) {
  if (heat_window_ != window) {
    HeatmapRow& row = heatmap_[window];
    if (row.index_reads.empty()) {
      row.index_reads.assign(static_cast<size_t>(bins_), 0);
      row.data_reads.assign(static_cast<size_t>(bins_), 0);
    }
    heat_row_ = &row;
    heat_window_ = window;
  }
  return heat_row_;
}

void TelemetryShard::RecordFlight(TraceEventKind kind, int64_t pos,
                                  int packets, double dur, int64_t client) {
  if (ring_.empty()) return;
  FlightEvent& e = ring_[ring_pos_];
  e.client = client;
  e.pos = pos;
  e.dur = dur;
  e.packets = packets;
  e.kind = kind;
  if (++ring_pos_ == ring_.size()) ring_pos_ = 0;
  ++ring_written_;
}

void TelemetryShard::SessionJoin(double t) {
  Cnt(&c_arrivals_, kTsArrivals, series_.WindowIndex(t))->Add(1);
}

void TelemetryShard::Departure(double t) {
  Cnt(&c_departures_, kTsDepartures, series_.WindowIndex(t))->Add(1);
}

void TelemetryShard::QueryIssued(double arrival) {
  const int64_t w = series_.WindowIndex(arrival);
  Cnt(&c_issued_, kTsQueriesIssued, w)->Add(1);
  ++inflight_;
  series_.gauge(kTsShardInflight, w)->Record(static_cast<double>(inflight_));
}

void TelemetryShard::Doze(double resume_at, double dur, int64_t client,
                          uint32_t q) {
  (void)q;
  if (!(dur > 0.0)) return;
  RecordFlight(TraceEventKind::kDoze,
               static_cast<int64_t>(std::floor(resume_at)), 0, dur, client);
  // Attribute the slept packets to every window the interval
  // [resume_at - dur, resume_at) overlaps, so per-window doze occupancy
  // integrates exactly to the total time slept.
  const double width = series_.window_width();
  double t = std::max(resume_at - dur, 0.0);
  int64_t w = series_.WindowIndex(t);
  while (t < resume_at) {
    const double window_end = static_cast<double>(w + 1) * width;
    const double seg_end = std::min(resume_at, window_end);
    if (seg_end > t) Hist(&h_doze_, kTsDoze, w)->Add(seg_end - t);
    t = window_end;
    ++w;
  }
}

void TelemetryShard::Read(TraceEventKind kind, int64_t pos, int packets,
                          bool data_read, int64_t client, uint32_t q) {
  (void)q;
  RecordFlight(kind, pos, packets, 0.0, client);
  // Per-packet attribution: a multi-packet retrieval (bucket read,
  // fallback-scan listening) may straddle a window boundary.
  for (int k = 0; k < packets; ++k) {
    const int64_t at = pos + k;
    const int64_t w = at / cycle_packets_;  // == WindowIndex(at), integer
    Counter* c = data_read ? Cnt(&c_data_reads_, kTsDataReads, w)
                           : Cnt(&c_index_reads_, kTsIndexReads, w);
    c->Add(1);
    HeatmapRow* row = Row(w);
    const int64_t in_cycle = at % cycle_packets_;
    const size_t bin =
        static_cast<size_t>(in_cycle * bins_ / cycle_packets_);
    if (data_read) {
      ++row->data_reads[bin];
    } else {
      ++row->index_reads[bin];
    }
  }
}

void TelemetryShard::Fault(TraceEventKind kind, int64_t pos, int64_t client,
                           uint32_t q) {
  (void)q;
  const int64_t w = pos / cycle_packets_;
  switch (kind) {
    case TraceEventKind::kLoss:
      Cnt(&c_lost_, kTsLostPackets, w)->Add(1);
      break;
    case TraceEventKind::kCorruption:
      Cnt(&c_corrupted_, kTsCorruptedPackets, w)->Add(1);
      break;
    case TraceEventKind::kRetune:
      Cnt(&c_retries_, kTsRetries, w)->Add(1);
      break;
    case TraceEventKind::kEpochSwitch:
      Cnt(&c_epoch_switches_, kTsEpochSwitches, w)->Add(1);
      break;
    default:
      DTREE_CHECK(false);  // not a fault / recovery event
  }
  RecordFlight(kind, pos, 0, 0.0, client);
}

void TelemetryShard::Record(const TraceEvent& e, int64_t client,
                            uint32_t q) {
  switch (e.kind) {
    case TraceEventKind::kProbe:
    case TraceEventKind::kIndexRead:
      Read(e.kind, e.pos, 1, /*data_read=*/false, client, q);
      break;
    case TraceEventKind::kBucketRead:
      Read(e.kind, e.pos, e.packet, /*data_read=*/true, client, q);
      break;
    case TraceEventKind::kFallbackScan:
      Read(e.kind, e.pos, e.packet, /*data_read=*/false, client, q);
      break;
    case TraceEventKind::kDoze:
      Doze(static_cast<double>(e.pos), e.dur, client, q);
      break;
    case TraceEventKind::kLoss:
    case TraceEventKind::kRetune:
    case TraceEventKind::kCorruption:
    case TraceEventKind::kEpochSwitch:
      Fault(e.kind, e.pos, client, q);
      break;
    case TraceEventKind::kCacheHit:
      break;
  }
}

void TelemetryShard::CacheLookup(double t, bool hit) {
  const int64_t w = series_.WindowIndex(t);
  if (hit) {
    Cnt(&c_cache_hits_, kTsCacheHits, w)->Add(1);
  } else {
    Cnt(&c_cache_misses_, kTsCacheMisses, w)->Add(1);
  }
}

void TelemetryShard::CacheEvicted(double t, int n) {
  if (n <= 0) return;
  Cnt(&c_cache_evictions_, kTsCacheEvictions, series_.WindowIndex(t))
      ->Add(static_cast<uint64_t>(n));
}

void TelemetryShard::CacheInvalidated(double t, int n) {
  if (n <= 0) return;
  Cnt(&c_cache_invalidations_, kTsCacheInvalidations, series_.WindowIndex(t))
      ->Add(static_cast<uint64_t>(n));
}

void TelemetryShard::QueryDone(double done, int64_t client, uint32_t q,
                               const QueryOutcomeSummary& out) {
  const int64_t w = series_.WindowIndex(done);
  Cnt(&c_completed_, kTsQueriesCompleted, w)->Add(1);
  if (out.unrecoverable) Cnt(&c_unrec_, kTsUnrecoverable, w)->Add(1);
  if (out.fallback_scan) Cnt(&c_fallback_, kTsFallback, w)->Add(1);
  Hist(&h_latency_, kTsLatency, w)->Add(out.latency);
  Hist(&h_tuning_, kTsTuning, w)->Add(static_cast<double>(out.tuning_total));
  --inflight_;
  series_.gauge(kTsShardInflight, w)->Record(static_cast<double>(inflight_));
  if (out.unrecoverable) DumpFlight(done, client, q, out);
}

void TelemetryShard::DumpFlight(double done, int64_t client, uint32_t q,
                                const QueryOutcomeSummary& out) {
  std::string& line = flight_;
  AppendF(&line, "{\"flight\": \"unrecoverable\", \"client\": %lld",
          static_cast<long long>(client));
  AppendF(&line, ", \"q\": %u, \"done\": %.10g, \"latency\": %.10g", q, done,
          out.latency);
  AppendF(&line, ", \"tuning\": %d, \"retries\": %d, \"lost\": %d",
          out.tuning_total, out.retries, out.lost_packets);
  AppendF(&line, ", \"corrupted\": %d, \"fallback\": %s",
          out.corrupted_packets, out.fallback_scan ? "true" : "false");
  if (out.versioned) {
    AppendF(&line, ", \"epoch\": %u, \"epoch_switches\": %d",
            static_cast<unsigned>(out.epoch), out.epoch_switches);
  }
  if (out.give_up != nullptr && out.give_up[0] != '\0') {
    AppendF(&line, ", \"give_up\": \"%s\"", out.give_up);
  }
  line += ", \"events\": [";
  // Ring replay, oldest surviving event first, filtered to this client.
  const size_t count = ring_written_ < ring_.size()
                           ? static_cast<size_t>(ring_written_)
                           : ring_.size();
  const size_t oldest =
      ring_written_ < ring_.size() ? 0 : ring_pos_;  // next overwrite slot
  bool first = true;
  for (size_t i = 0; i < count; ++i) {
    const FlightEvent& e = ring_[(oldest + i) % ring_.size()];
    if (e.client != client) continue;
    if (!first) line += ", ";
    first = false;
    AppendF(&line, "{\"t\": \"%s\", \"pos\": %lld",
            TraceEventKindName(e.kind), static_cast<long long>(e.pos));
    if (e.kind == TraceEventKind::kDoze) {
      AppendF(&line, ", \"dur\": %.10g", e.dur);
    } else if (e.packets > 0) {
      AppendF(&line, ", \"n\": %d", e.packets);
    }
    line.push_back('}');
  }
  line += "]}\n";
  ++flight_records_;
}

FleetTelemetry::FleetTelemetry(const TelemetryOptions& options)
    : options_(options) {
  DTREE_CHECK(options.heatmap_bins > 0);
  DTREE_CHECK(options.flight_recorder_capacity >= 0);
}

void FleetTelemetry::Reset(int64_t cycle_packets, int num_shards) {
  DTREE_CHECK(cycle_packets > 0);
  DTREE_CHECK(num_shards >= 1);
  cycle_packets_ = cycle_packets;
  shards_.clear();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(new TelemetryShard(
        static_cast<double>(cycle_packets), cycle_packets,
        options_.heatmap_bins, options_.flight_recorder_capacity));
  }
  series_ = TimeSeries(static_cast<double>(cycle_packets));
  heatmap_.clear();
  flight_.clear();
  flight_records_ = 0;
  merged_ = false;
  cache_enabled_ = false;
}

void FleetTelemetry::MergeShards() {
  // Rebuilt from scratch each call (idempotent): shards are immutable
  // once the parallel section is over.
  series_ = TimeSeries(static_cast<double>(cycle_packets_));
  heatmap_.clear();
  flight_.clear();
  flight_records_ = 0;
  for (const auto& shard : shards_) {
    series_.MergeOrdered(shard->series_);
    for (const auto& [window, row] : shard->heatmap_) {
      HeatmapRow& mine = heatmap_[window];
      if (mine.index_reads.empty()) {
        mine.index_reads.assign(row.index_reads.size(), 0);
        mine.data_reads.assign(row.data_reads.size(), 0);
      }
      for (size_t i = 0; i < row.index_reads.size(); ++i) {
        mine.index_reads[i] += row.index_reads[i];
        mine.data_reads[i] += row.data_reads[i];
      }
    }
    flight_ += shard->flight_;
    flight_records_ += shard->flight_records_;
  }
  merged_ = true;
}

TelemetryTotals FleetTelemetry::Totals() const {
  DTREE_CHECK(merged_);
  TelemetryTotals t;
  t.queries = static_cast<int64_t>(series_.CounterTotal(kTsQueriesCompleted));
  t.sessions = static_cast<int64_t>(series_.CounterTotal(kTsArrivals));
  t.departures = static_cast<int64_t>(series_.CounterTotal(kTsDepartures));
  t.retries = static_cast<int64_t>(series_.CounterTotal(kTsRetries));
  t.lost_packets =
      static_cast<int64_t>(series_.CounterTotal(kTsLostPackets));
  t.corrupted_packets =
      static_cast<int64_t>(series_.CounterTotal(kTsCorruptedPackets));
  t.unrecoverable =
      static_cast<int64_t>(series_.CounterTotal(kTsUnrecoverable));
  t.fallback = static_cast<int64_t>(series_.CounterTotal(kTsFallback));
  t.epoch_switches =
      static_cast<int64_t>(series_.CounterTotal(kTsEpochSwitches));
  t.cache = cache_enabled_;
  t.cache_hits = static_cast<int64_t>(series_.CounterTotal(kTsCacheHits));
  t.cache_misses =
      static_cast<int64_t>(series_.CounterTotal(kTsCacheMisses));
  t.cache_evictions =
      static_cast<int64_t>(series_.CounterTotal(kTsCacheEvictions));
  t.cache_invalidations =
      static_cast<int64_t>(series_.CounterTotal(kTsCacheInvalidations));
  return t;
}

std::string FleetTelemetry::TimelineJsonl(
    const std::string& label, const TelemetryTotals* totals) const {
  DTREE_CHECK(merged_);
  const TelemetryTotals own = Totals();
  const TelemetryTotals& t = totals != nullptr ? *totals : own;
  const std::vector<int64_t> windows = series_.Windows();
  std::string out;
  out.reserve(256 + windows.size() * 640);

  out += "{\"meta\": \"fleet_telemetry\"";
  if (!label.empty()) {
    out += ", \"cell\": ";
    AppendJsonString(&out, label);
  }
  AppendF(&out, ", \"window_packets\": %lld, \"cycle_packets\": %lld",
          static_cast<long long>(cycle_packets_),
          static_cast<long long>(cycle_packets_));
  AppendF(&out, ", \"heatmap_bins\": %d, \"windows\": %zu",
          options_.heatmap_bins, windows.size());
  AppendF(&out, ", \"flight_records\": %lld",
          static_cast<long long>(flight_records_));
  out += ", \"totals\": ";
  AppendTotalsJson(&out, t);
  out += "}\n";

  static const std::vector<int64_t> kEmptyRow;
  for (const int64_t w : windows) {
    AppendF(&out, "{\"w\": %lld", static_cast<long long>(w));
    const auto cnt = [&](const char* key, const char* name) {
      AppendF(&out, ", \"%s\": %" PRIu64, key, series_.CounterValue(name, w));
    };
    cnt("issued", kTsQueriesIssued);
    cnt("completed", kTsQueriesCompleted);
    cnt("unrecoverable", kTsUnrecoverable);
    cnt("fallback", kTsFallback);
    cnt("retries", kTsRetries);
    cnt("lost", kTsLostPackets);
    cnt("corrupted", kTsCorruptedPackets);
    cnt("arrivals", kTsArrivals);
    cnt("departures", kTsDepartures);
    cnt("index_reads", kTsIndexReads);
    cnt("data_reads", kTsDataReads);
    cnt("epoch_switches", kTsEpochSwitches);
    if (cache_enabled_) {
      cnt("cache_hits", kTsCacheHits);
      cnt("cache_misses", kTsCacheMisses);
      cnt("cache_evictions", kTsCacheEvictions);
      cnt("cache_invalidations", kTsCacheInvalidations);
    }
    const Histogram* doze = series_.FindHistogram(kTsDoze, w);
    AppendF(&out, ", \"doze_packets\": %.10g, \"doze_count\": %" PRIu64,
            doze == nullptr ? 0.0 : doze->Sum(),
            doze == nullptr ? 0 : doze->TotalCount());
    const MinMaxGauge* g = series_.FindGauge(kTsShardInflight, w);
    AppendF(&out, ", \"inflight_min\": %.10g, \"inflight_max\": %.10g",
            g == nullptr ? 0.0 : g->min(), g == nullptr ? 0.0 : g->max());
    AppendHistJson(&out, "latency", series_.FindHistogram(kTsLatency, w));
    AppendHistJson(&out, "tuning", series_.FindHistogram(kTsTuning, w));
    const auto hit = heatmap_.find(w);
    out += ", \"heatmap_index\": ";
    AppendInt64Array(&out, hit != heatmap_.end() ? hit->second.index_reads
                                                 : kEmptyRow);
    out += ", \"heatmap_data\": ";
    AppendInt64Array(&out,
                     hit != heatmap_.end() ? hit->second.data_reads
                                           : kEmptyRow);
    out += "}\n";
  }
  return out;
}

std::string FleetTelemetry::PrometheusText() const {
  DTREE_CHECK(merged_);
  const TelemetryTotals t = Totals();
  std::string out;
  AppendPromCounter(&out, "fleet_queries_issued_total",
                    series_.CounterTotal(kTsQueriesIssued));
  AppendPromCounter(&out, "fleet_queries_completed_total",
                    static_cast<uint64_t>(t.queries));
  AppendPromCounter(&out, "fleet_unrecoverable_total",
                    static_cast<uint64_t>(t.unrecoverable));
  AppendPromCounter(&out, "fleet_fallback_total",
                    static_cast<uint64_t>(t.fallback));
  AppendPromCounter(&out, "fleet_retries_total",
                    static_cast<uint64_t>(t.retries));
  AppendPromCounter(&out, "fleet_lost_packets_total",
                    static_cast<uint64_t>(t.lost_packets));
  AppendPromCounter(&out, "fleet_corrupted_packets_total",
                    static_cast<uint64_t>(t.corrupted_packets));
  AppendPromCounter(&out, "fleet_sessions_total",
                    static_cast<uint64_t>(t.sessions));
  AppendPromCounter(&out, "fleet_departures_total",
                    static_cast<uint64_t>(t.departures));
  AppendPromCounter(&out, "fleet_index_reads_total",
                    series_.CounterTotal(kTsIndexReads));
  AppendPromCounter(&out, "fleet_data_reads_total",
                    series_.CounterTotal(kTsDataReads));
  AppendPromCounter(&out, "fleet_epoch_switches_total",
                    static_cast<uint64_t>(t.epoch_switches));
  if (cache_enabled_) {
    AppendPromCounter(&out, "fleet_cache_hits_total",
                      static_cast<uint64_t>(t.cache_hits));
    AppendPromCounter(&out, "fleet_cache_misses_total",
                      static_cast<uint64_t>(t.cache_misses));
    AppendPromCounter(&out, "fleet_cache_evictions_total",
                      static_cast<uint64_t>(t.cache_evictions));
    AppendPromCounter(&out, "fleet_cache_invalidations_total",
                      static_cast<uint64_t>(t.cache_invalidations));
  }
  AppendPromHistogram(&out, "fleet_latency_packets",
                      FoldWindows(series_, kTsLatency));
  AppendPromHistogram(&out, "fleet_tuning_packets",
                      FoldWindows(series_, kTsTuning));
  AppendPromHistogram(&out, "fleet_doze_packets",
                      FoldWindows(series_, kTsDoze));
  return out;
}

void TelemetryTraceSink::Consume(const QueryTrace& trace) {
  DTREE_CHECK(telemetry_->num_shards() >= 1);
  TelemetryShard* s = telemetry_->shard(0);
  const int64_t client = trace.client_id;
  const uint32_t q = static_cast<uint32_t>(trace.query_index);
  s->QueryIssued(trace.arrival);
  for (const TraceEvent& e : trace.events) s->Record(e, client, q);
  if (telemetry_->cache_enabled()) {
    s->CacheLookup(trace.arrival, trace.cache_hit);
  }
  QueryOutcomeSummary out;
  out.latency = trace.latency;
  out.tuning_total = trace.tuning_total;
  out.retries = trace.retries;
  out.lost_packets = trace.lost_packets;
  out.corrupted_packets = trace.corrupted_packets;
  out.fallback_scan = trace.fallback_scan;
  out.unrecoverable = trace.unrecoverable;
  out.versioned = trace.versioned;
  out.epoch = trace.epoch;
  out.epoch_switches = trace.epoch_switches;
  s->QueryDone(trace.arrival + trace.latency, client, q, out);
}

}  // namespace dtree::bcast
