// Fleet-scale telemetry: one fixed record per broadcast-cycle window
// (counters, histograms, an in-flight gauge and a read heatmap binned by
// cycle position), and a flight recorder — the continuous view
// of the paper's two headline metrics (tuning time and access latency)
// that a battery-powered receiver fleet must monitor, not just average
// at end-of-run.
//
// Architecture (same determinism contract as the fleet engine itself):
//   * FleetTelemetry owns one TelemetryShard per fleet shard. Each shard
//     engine records into its private shard single-threaded on the hot
//     path — plain counter bumps and histogram adds, no locking, no RNG,
//     no per-event allocation in the steady state (a window record is
//     allocated on the first touch of its window).
//   * A query's protocol events reach telemetry from its trace
//     (QueryTrace::events), once the query has finished running
//     (QueryEvents); its issue and completion arrive at their own event
//     times (QueryIssued, QueryDone). The access protocol has no
//     telemetry hook.
//   * After the parallel section, MergeShards() folds the shards' window
//     records in shard order; every exported byte (timeline JSONL,
//     Prometheus text, flight records) is therefore identical for any
//     thread count.
//   * Telemetry is opt-in via FleetOptions::telemetry. When unset, and
//     no trace sink is attached, a query has no trace, so the access
//     protocol's event sites pay one predicted null check each and
//     nothing else. Either way FleetResult stays bit-identical to a run
//     without the telemetry layer compiled at all (golden-pinned in
//     tests).
//
// What one window record (TelemetryWindow) holds:
//   counters   issued / completed / unrecoverable / fallback / retries /
//              lost / corrupted / arrivals / departures / index_reads /
//              data_reads / epoch_switches, plus four cache counters
//   histograms latency, tuning (at the completion window), doze (packets
//              slept, split across the windows the doze overlaps — the
//              dozing-vs-active occupancy signal: doze_sum/window_width
//              is the mean number of dozing clients during the window,
//              (index_reads+data_reads)/window_width the mean number
//              actively listening)
//   gauge      inflight — min/max in-flight queries observed in any
//              single shard (per-shard load-balance envelope)
//   heatmap    index-class vs data-class packet reads binned by position
//              within the broadcast cycle — the demand signal
//              popularity-aware scheduling consumes.
//
// Flight recorder: when a query ends unrecoverable, QueryEvents writes
// one JSONL "black box" record of it — its outcome summary and every
// event of its trace, encoded exactly as its trace line encodes them
// (AppendEventsJson) — so post-mortems see the exact ladder walk that
// exhausted the budget without tracing every query. A fleet shard writes
// its records in the order its queries finish running; each record
// carries its completion time.

#ifndef DTREE_BROADCAST_TELEMETRY_H_
#define DTREE_BROADCAST_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/trace.h"
#include "common/metrics.h"

namespace dtree::bcast {

struct FleetResult;  // broadcast/fleet.h

struct TelemetryOptions {
  /// Cycle-position bins of the per-window read heatmap, > 0.
  int heatmap_bins = 32;
};

/// Run-level totals written into the timeline meta line — the anchor the
/// offline validator (tools/telemetry_report.py --check) sums windows
/// against. Callers with a FleetResult should derive them from it
/// (TotalsFromFleet) so the cross-check binds the timeline to the
/// engine's own aggregate, not to telemetry-internal counts.
struct TelemetryTotals {
  int64_t queries = 0;
  int64_t sessions = 0;
  int64_t departures = 0;
  int64_t retries = 0;
  int64_t lost_packets = 0;
  int64_t corrupted_packets = 0;
  int64_t unrecoverable = 0;
  int64_t fallback = 0;
  int64_t epoch_switches = 0;
  /// Region-cache totals; exported (and meaningful) only when `cache` —
  /// set for runs that had the cache enabled — so cache-off timeline
  /// bytes are unchanged.
  bool cache = false;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
};

TelemetryTotals TotalsFromFleet(const FleetResult& result);

/// Everything telemetry records about one broadcast-cycle window. A
/// record exists once any event touched its window; parts no event
/// touched stay empty and export as zeros.
struct TelemetryWindow {
  /// The counters, in export order. The cache counters come last: they
  /// are recorded only with the region cache on, and exported only when
  /// FleetTelemetry::cache_enabled().
  enum Counter : uint8_t {
    kIssued,
    kCompleted,
    kUnrecoverable,
    kFallback,
    kRetries,
    kLost,
    kCorrupted,
    kArrivals,
    kDepartures,
    kIndexReads,
    kDataReads,
    kEpochSwitches,
    kCacheHits,
    kCacheMisses,
    kCacheEvictions,
    kCacheInvalidations,
    kNumCounters,
  };

  std::array<uint64_t, kNumCounters> counters{};
  /// Completed queries' latency and tuning, at the completion window.
  Histogram latency;
  Histogram tuning;
  /// Packets slept, split across the windows each doze overlaps.
  Histogram doze;
  /// One shard's in-flight queries, sampled at every issue and completion.
  MinMaxGauge inflight;
  /// Packets read per cycle-position bin: index-class (probe, index
  /// descent, fallback-scan listening) and data-class (bucket reads).
  /// Both are empty until the window's first read.
  std::vector<int64_t> heat_index;
  std::vector<int64_t> heat_data;

  /// Adds another shard's record of the same window; call in shard order.
  void Merge(const TelemetryWindow& other);
};

/// One shard's private telemetry accumulator. All methods are called
/// from the owning shard's event loop only (single-threaded); windows
/// are derived from the timestamps passed in, never from shared state.
class TelemetryShard {
 public:
  /// A client session joined (generation 0 or a churn replacement).
  void SessionJoin(double t);
  /// A session left through churn at completion time t.
  void Departure(double t);
  /// A query was issued with the given absolute arrival time.
  void QueryIssued(double arrival);
  /// The events of a query that completes at absolute time `done`, read
  /// from its finished trace: each doze, read and fault / recovery event
  /// is counted in its window (kCacheHit records nothing; lookups are
  /// counted by CacheLookup). An unrecoverable query also leaves its
  /// flight record, naming `give_up` (the GiveUpStageName) unless it is
  /// "" (trace feeds do not know it).
  void QueryEvents(const QueryTrace& qt, double done, const char* give_up);
  /// The query is over (answered or given up) at absolute time `done`.
  void QueryDone(double done, const QuerySummary& out);
  /// Region-cache lookup outcome at time t (one per issued query when the
  /// cache is enabled). Not a fault event: losses and corruption never
  /// touch the cache, and cache activity has its own counters.
  void CacheLookup(double t, bool hit);
  /// `n` entries evicted by the byte budget at time t.
  void CacheEvicted(double t, int n);
  /// `n` entries flushed by an epoch change at time t.
  void CacheInvalidated(double t, int n);

 private:
  friend class FleetTelemetry;

  TelemetryShard(int64_t cycle_packets, int bins);

  /// Window owning time t: floor(t / cycle_packets). Negative and NaN
  /// times clamp into window 0.
  int64_t WindowOf(double t) const;
  /// Window w's record, created on first touch. The last one touched is
  /// cached, so steady-state recording skips the map lookup.
  TelemetryWindow& At(int64_t w);
  void Count(double t, TelemetryWindow::Counter c, int n = 1) {
    At(WindowOf(t)).counters[c] += static_cast<uint64_t>(n);
  }

  /// One protocol event: a doze, a read or a fault / recovery event.
  void Record(const TraceEvent& e);
  /// The client dozed for `dur` packets, resuming at `resume_at`; the
  /// slept packets are split across every window the doze overlaps.
  void Doze(double resume_at, double dur);
  /// `packets` consecutive packet reads starting at `pos`;
  /// `data_read` selects the heatmap class (kProbe / kIndexRead /
  /// kFallbackScan listening are index-class, kBucketRead data-class).
  void Read(int64_t pos, int packets, bool data_read);
  /// A fault or recovery event at `pos`, counted in `c` of its window.
  void Fault(int64_t pos, TelemetryWindow::Counter c);

  int64_t cycle_packets_;
  int bins_;
  std::map<int64_t, TelemetryWindow> windows_;
  int64_t cached_window_ = INT64_MIN;
  TelemetryWindow* cached_ = nullptr;
  int64_t inflight_ = 0;
  std::string flight_;  ///< this shard's black-box JSONL records
  int64_t flight_records_ = 0;
};

/// The fleet-run telemetry sink. Reset() -> per-shard recording ->
/// MergeShards() -> exporters; see the file comment for the contract.
class FleetTelemetry {
 public:
  explicit FleetTelemetry(const TelemetryOptions& options = {});

  const TelemetryOptions& options() const { return options_; }

  /// Clears all state and re-keys the window axis to one window per
  /// broadcast cycle. Called by RunFleet before the parallel section.
  /// Also resets cache_enabled() to false; a cache-enabled run must call
  /// set_cache_enabled(true) again after Reset.
  void Reset(int64_t cycle_packets, int num_shards);

  /// Declares whether the run being recorded has the region cache
  /// enabled. Gates the cache keys in every exporter so cache-off
  /// timeline / Prometheus bytes are unchanged. Set by RunFleet from
  /// FleetOptions::cache (benches driving TelemetryTraceSink set it
  /// directly after Reset).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  bool cache_enabled() const { return cache_enabled_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  TelemetryShard* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }

  /// Folds every shard into the merged view, in shard order. Called by
  /// RunFleet after the parallel section (idempotent per Reset). Each
  /// shard's flight text moves into the merged string, so the shards hold
  /// none afterwards.
  void MergeShards();

  // --- Merged views; valid after MergeShards(). ---
  int64_t cycle_packets() const { return cycle_packets_; }
  /// Every touched window's record, ascending by window index.
  const std::map<int64_t, TelemetryWindow>& windows() const {
    return windows_;
  }
  /// Concatenated black-box JSONL records, shard order.
  const std::string& flight_records() const { return flight_; }
  int64_t flight_record_count() const { return flight_records_; }
  /// Totals summed from the merged windows (telemetry's own view; compare
  /// against TotalsFromFleet to cross-check the engine).
  TelemetryTotals Totals() const;

  /// Timeline export: a meta line (schema id, layout, run totals —
  /// `totals` should come from the FleetResult via TotalsFromFleet;
  /// nullptr falls back to Totals()), then one JSON line per window in
  /// ascending window order. Byte-identical for any thread count.
  std::string TimelineJsonl(const std::string& label = "",
                            const TelemetryTotals* totals = nullptr) const;

  /// Prometheus text exposition: run-total counters plus cumulative
  /// latency / tuning / doze histograms under the fleet_* namespace.
  std::string PrometheusText() const;

 private:
  TelemetryOptions options_;
  int64_t cycle_packets_ = 1;
  std::vector<std::unique_ptr<TelemetryShard>> shards_;
  std::map<int64_t, TelemetryWindow> windows_;
  std::string flight_;
  int64_t flight_records_ = 0;
  bool merged_ = false;
  bool cache_enabled_ = false;
};

/// Adapter feeding a FleetTelemetry from a per-query trace stream — the
/// single-query Simulate path (RunExperiment benches) gets the same
/// timeline, heatmap and flight-record output as the fleet engine
/// without touching the driver. Each trace goes through the calls the
/// fleet engine makes for one query: QueryIssued, QueryEvents,
/// CacheLookup (cache-enabled runs only), QueryDone. The telemetry must
/// have been Reset() for the run's channel layout with num_shards >= 1;
/// all traces are recorded into shard 0 (trace sinks are fed
/// single-threaded in global query order, so the result is deterministic
/// by construction). Call MergeShards() after the run, before exporting.
/// Experiment traces carry no session lifecycle, so arrivals/departures
/// stay zero, and their flight records name the anonymous client -1.
class TelemetryTraceSink : public TraceSink {
 public:
  explicit TelemetryTraceSink(FleetTelemetry* telemetry)
      : telemetry_(telemetry) {}

  void Consume(const QueryTrace& trace) override;

 private:
  FleetTelemetry* telemetry_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_TELEMETRY_H_
