#include "broadcast/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <iterator>

#include "broadcast/fleet.h"
#include "common/check.h"

namespace dtree::bcast {

namespace {

using W = TelemetryWindow;

/// Timeline key and Prometheus name of each window counter, in
/// TelemetryWindow::Counter order.
struct CounterName {
  const char* key;
  const char* prom;
};
constexpr CounterName kCounterNames[] = {
    {"issued", "fleet_queries_issued_total"},
    {"completed", "fleet_queries_completed_total"},
    {"unrecoverable", "fleet_unrecoverable_total"},
    {"fallback", "fleet_fallback_total"},
    {"retries", "fleet_retries_total"},
    {"lost", "fleet_lost_packets_total"},
    {"corrupted", "fleet_corrupted_packets_total"},
    {"arrivals", "fleet_sessions_total"},
    {"departures", "fleet_departures_total"},
    {"index_reads", "fleet_index_reads_total"},
    {"data_reads", "fleet_data_reads_total"},
    {"epoch_switches", "fleet_epoch_switches_total"},
    {"cache_hits", "fleet_cache_hits_total"},
    {"cache_misses", "fleet_cache_misses_total"},
    {"cache_evictions", "fleet_cache_evictions_total"},
    {"cache_invalidations", "fleet_cache_invalidations_total"},
};
static_assert(std::size(kCounterNames) == W::kNumCounters);

/// Counters the exporters write: the cache counters only with the cache on.
int ExportedCounters(bool cache_enabled) {
  return cache_enabled ? W::kNumCounters : W::kCacheHits;
}

std::array<uint64_t, W::kNumCounters> SumCounters(
    const std::map<int64_t, TelemetryWindow>& windows) {
  std::array<uint64_t, W::kNumCounters> sum{};
  for (const auto& [w, win] : windows) {
    for (int c = 0; c < W::kNumCounters; ++c) sum[c] += win.counters[c];
  }
  return sum;
}

/// Per-window histogram summary object: {"count": …, "sum": …, "min": …,
/// "max": …, "p50": …, "p95": …, "p99": …}. An empty histogram writes
/// the all-zero shape so every window line carries the same keys.
void AppendHistJson(std::string* out, const char* key, const Histogram& h) {
  AppendF(out, ", \"%s\": {\"count\": %" PRIu64, key, h.TotalCount());
  if (h.empty()) {
    out->append(
        ", \"sum\": 0, \"min\": 0, \"max\": 0, \"p50\": 0, \"p95\": 0, "
        "\"p99\": 0}");
    return;
  }
  AppendF(out, ", \"sum\": %.10g, \"min\": %.10g, \"max\": %.10g", h.Sum(),
          h.Min(), h.Max());
  AppendF(out, ", \"p50\": %.10g, \"p95\": %.10g, \"p99\": %.10g}",
          h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99));
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

void TelemetryWindow::Merge(const TelemetryWindow& other) {
  for (int c = 0; c < kNumCounters; ++c) counters[c] += other.counters[c];
  latency.Merge(other.latency);
  tuning.Merge(other.tuning);
  doze.Merge(other.doze);
  inflight.Merge(other.inflight);
  if (heat_index.empty()) {
    heat_index = other.heat_index;
    heat_data = other.heat_data;
  } else if (!other.heat_index.empty()) {
    for (size_t i = 0; i < heat_index.size(); ++i) {
      heat_index[i] += other.heat_index[i];
      heat_data[i] += other.heat_data[i];
    }
  }
}

TelemetryShard::TelemetryShard(int64_t cycle_packets, int bins)
    : cycle_packets_(cycle_packets), bins_(bins) {
  DTREE_CHECK(cycle_packets > 0);
  DTREE_CHECK(bins > 0);
}

int64_t TelemetryShard::WindowOf(double t) const {
  if (!(t > 0.0)) return 0;  // negatives and NaN clamp into window 0
  return static_cast<int64_t>(
      std::floor(t / static_cast<double>(cycle_packets_)));
}

TelemetryWindow& TelemetryShard::At(int64_t w) {
  if (w != cached_window_) {
    cached_ = &windows_[w];
    cached_window_ = w;
  }
  return *cached_;
}

void TelemetryShard::SessionJoin(double t) { Count(t, W::kArrivals); }

void TelemetryShard::Departure(double t) { Count(t, W::kDepartures); }

void TelemetryShard::QueryIssued(double arrival) {
  TelemetryWindow& win = At(WindowOf(arrival));
  ++win.counters[W::kIssued];
  ++inflight_;
  win.inflight.Record(static_cast<double>(inflight_));
}

void TelemetryShard::Doze(double resume_at, double dur) {
  if (!(dur > 0.0)) return;
  // Attribute the slept packets to every window the interval
  // [resume_at - dur, resume_at) overlaps, so per-window doze occupancy
  // integrates exactly to the total time slept.
  const double width = static_cast<double>(cycle_packets_);
  double t = std::max(resume_at - dur, 0.0);
  int64_t w = WindowOf(t);
  while (t < resume_at) {
    const double window_end = static_cast<double>(w + 1) * width;
    const double seg_end = std::min(resume_at, window_end);
    if (seg_end > t) At(w).doze.Add(seg_end - t);
    t = window_end;
    ++w;
  }
}

void TelemetryShard::Read(int64_t pos, int packets, bool data_read) {
  // Per-packet attribution: a multi-packet retrieval (bucket read,
  // fallback-scan listening) may straddle a window boundary.
  for (int k = 0; k < packets; ++k) {
    const int64_t at = pos + k;
    TelemetryWindow& win = At(at / cycle_packets_);  // integer window
    ++win.counters[data_read ? W::kDataReads : W::kIndexReads];
    if (win.heat_index.empty()) {
      win.heat_index.assign(static_cast<size_t>(bins_), 0);
      win.heat_data.assign(static_cast<size_t>(bins_), 0);
    }
    const int64_t bin = at % cycle_packets_ * bins_ / cycle_packets_;
    ++(data_read ? win.heat_data : win.heat_index)[static_cast<size_t>(bin)];
  }
}

void TelemetryShard::Fault(int64_t pos, TelemetryWindow::Counter c) {
  ++At(pos / cycle_packets_).counters[c];
}

void TelemetryShard::Record(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kProbe:
    case TraceEventKind::kIndexRead:
      Read(e.pos, 1, /*data_read=*/false);
      break;
    case TraceEventKind::kBucketRead:
      Read(e.pos, e.packet, /*data_read=*/true);
      break;
    case TraceEventKind::kFallbackScan:
      Read(e.pos, e.packet, /*data_read=*/false);
      break;
    case TraceEventKind::kDoze:
      Doze(static_cast<double>(e.pos), e.dur);
      break;
    case TraceEventKind::kLoss:
      Fault(e.pos, W::kLost);
      break;
    case TraceEventKind::kRetune:
      Fault(e.pos, W::kRetries);
      break;
    case TraceEventKind::kCorruption:
      Fault(e.pos, W::kCorrupted);
      break;
    case TraceEventKind::kEpochSwitch:
      Fault(e.pos, W::kEpochSwitches);
      break;
    case TraceEventKind::kCacheHit:
      break;
  }
}

void TelemetryShard::QueryEvents(const QueryTrace& qt, double done,
                                 const char* give_up) {
  for (const TraceEvent& e : qt.events) Record(e);
  if (!qt.unrecoverable) return;
  AppendF(&flight_, "{\"flight\": \"unrecoverable\", \"client\": %lld",
          static_cast<long long>(qt.client_id));
  AppendF(&flight_, ", \"q\": %" PRIu64 ", \"done\": %.10g, \"latency\": %.10g",
          qt.query_index, done, qt.latency);
  AppendF(&flight_, ", \"tuning\": %d, \"retries\": %d, \"lost\": %d",
          qt.tuning_total, qt.retries, qt.lost_packets);
  AppendF(&flight_, ", \"corrupted\": %d, \"fallback\": %s",
          qt.corrupted_packets, qt.fallback_scan ? "true" : "false");
  if (qt.versioned) {
    AppendF(&flight_, ", \"epoch\": %u, \"epoch_switches\": %d",
            static_cast<unsigned>(qt.epoch), qt.epoch_switches);
  }
  if (give_up[0] != '\0') AppendF(&flight_, ", \"give_up\": \"%s\"", give_up);
  flight_ += ", \"events\": ";
  AppendEventsJson(&flight_, qt.events);
  flight_ += "}\n";
  ++flight_records_;
}

void TelemetryShard::CacheLookup(double t, bool hit) {
  Count(t, hit ? W::kCacheHits : W::kCacheMisses);
}

void TelemetryShard::CacheEvicted(double t, int n) {
  if (n > 0) Count(t, W::kCacheEvictions, n);
}

void TelemetryShard::CacheInvalidated(double t, int n) {
  if (n > 0) Count(t, W::kCacheInvalidations, n);
}

void TelemetryShard::QueryDone(double done, const QuerySummary& out) {
  TelemetryWindow& win = At(WindowOf(done));
  ++win.counters[W::kCompleted];
  if (out.unrecoverable) ++win.counters[W::kUnrecoverable];
  if (out.fallback_scan) ++win.counters[W::kFallback];
  win.latency.Add(out.latency);
  win.tuning.Add(static_cast<double>(out.tuning_total));
  --inflight_;
  win.inflight.Record(static_cast<double>(inflight_));
}

FleetTelemetry::FleetTelemetry(const TelemetryOptions& options)
    : options_(options) {
  DTREE_CHECK(options.heatmap_bins > 0);
}

void FleetTelemetry::Reset(int64_t cycle_packets, int num_shards) {
  DTREE_CHECK(cycle_packets > 0);
  DTREE_CHECK(num_shards >= 1);
  cycle_packets_ = cycle_packets;
  shards_.clear();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(
        new TelemetryShard(cycle_packets, options_.heatmap_bins));
  }
  windows_.clear();
  flight_.clear();
  flight_records_ = 0;
  merged_ = false;
  cache_enabled_ = false;
}

void FleetTelemetry::MergeShards() {
  // The windows are rebuilt from scratch each call: shards are immutable
  // once the parallel section is over. The flight text moves instead of
  // being copied: each shard's records are appended once and the shard's
  // copy freed, so a repeated call neither drops nor doubles them.
  windows_.clear();
  size_t flight_bytes = flight_.size();
  for (const auto& shard : shards_) flight_bytes += shard->flight_.size();
  flight_.reserve(flight_bytes);
  for (const auto& shard : shards_) {
    for (const auto& [w, win] : shard->windows_) windows_[w].Merge(win);
    flight_ += shard->flight_;
    flight_records_ += shard->flight_records_;
    std::string().swap(shard->flight_);
    shard->flight_records_ = 0;
  }
  merged_ = true;
}

TelemetryTotals FleetTelemetry::Totals() const {
  DTREE_CHECK(merged_);
  const auto sum = SumCounters(windows_);
  const auto total = [&sum](W::Counter c) {
    return static_cast<int64_t>(sum[c]);
  };
  TelemetryTotals t;
  t.queries = total(W::kCompleted);
  t.sessions = total(W::kArrivals);
  t.departures = total(W::kDepartures);
  t.retries = total(W::kRetries);
  t.lost_packets = total(W::kLost);
  t.corrupted_packets = total(W::kCorrupted);
  t.unrecoverable = total(W::kUnrecoverable);
  t.fallback = total(W::kFallback);
  t.epoch_switches = total(W::kEpochSwitches);
  t.cache = cache_enabled_;
  t.cache_hits = total(W::kCacheHits);
  t.cache_misses = total(W::kCacheMisses);
  t.cache_evictions = total(W::kCacheEvictions);
  t.cache_invalidations = total(W::kCacheInvalidations);
  return t;
}

std::string FleetTelemetry::TimelineJsonl(
    const std::string& label, const TelemetryTotals* totals) const {
  DTREE_CHECK(merged_);
  const TelemetryTotals own = Totals();
  const TelemetryTotals& t = totals != nullptr ? *totals : own;
  std::string out;
  out.reserve(256 + windows_.size() * 640);

  out += "{\"meta\": \"fleet_telemetry\"";
  if (!label.empty()) {
    out += ", \"cell\": ";
    AppendJsonString(&out, label);
  }
  AppendF(&out, ", \"window_packets\": %lld, \"cycle_packets\": %lld",
          static_cast<long long>(cycle_packets_),
          static_cast<long long>(cycle_packets_));
  AppendF(&out, ", \"heatmap_bins\": %d, \"windows\": %zu",
          options_.heatmap_bins, windows_.size());
  AppendF(&out, ", \"flight_records\": %lld",
          static_cast<long long>(flight_records_));
  out += ", \"totals\": ";
  AppendTotalsJson(&out, t);
  out += "}\n";

  const int counters = ExportedCounters(cache_enabled_);
  for (const auto& [w, win] : windows_) {
    AppendF(&out, "{\"w\": %lld", static_cast<long long>(w));
    for (int c = 0; c < counters; ++c) {
      AppendF(&out, ", \"%s\": %" PRIu64, kCounterNames[c].key,
              win.counters[c]);
    }
    AppendF(&out, ", \"doze_packets\": %.10g, \"doze_count\": %" PRIu64,
            win.doze.Sum(), win.doze.TotalCount());
    AppendF(&out, ", \"inflight_min\": %.10g, \"inflight_max\": %.10g",
            win.inflight.min(), win.inflight.max());
    AppendHistJson(&out, "latency", win.latency);
    AppendHistJson(&out, "tuning", win.tuning);
    out += ", \"heatmap_index\": ";
    AppendInt64Array(&out, win.heat_index);
    out += ", \"heatmap_data\": ";
    AppendInt64Array(&out, win.heat_data);
    out += "}\n";
  }
  return out;
}

std::string FleetTelemetry::PrometheusText() const {
  DTREE_CHECK(merged_);
  const auto sum = SumCounters(windows_);
  std::string out;
  for (int c = 0; c < ExportedCounters(cache_enabled_); ++c) {
    AppendF(&out, "# TYPE %s counter\n%s %" PRIu64 "\n", kCounterNames[c].prom,
            kCounterNames[c].prom, sum[c]);
  }
  // Run totals, folded in ascending window order (deterministic sums).
  Histogram latency, tuning, doze;
  for (const auto& [w, win] : windows_) {
    latency.Merge(win.latency);
    tuning.Merge(win.tuning);
    doze.Merge(win.doze);
  }
  AppendPromHistogram(&out, "fleet_latency_packets", latency);
  AppendPromHistogram(&out, "fleet_tuning_packets", tuning);
  AppendPromHistogram(&out, "fleet_doze_packets", doze);
  return out;
}

void TelemetryTraceSink::Consume(const QueryTrace& trace) {
  DTREE_CHECK(telemetry_->num_shards() >= 1);
  TelemetryShard* s = telemetry_->shard(0);
  const double done = trace.arrival + trace.latency;
  s->QueryIssued(trace.arrival);
  s->QueryEvents(trace, done, "");
  if (telemetry_->cache_enabled()) {
    s->CacheLookup(trace.arrival, trace.cache_hit);
  }
  s->QueryDone(done, trace);
}

}  // namespace dtree::bcast
