// Per-query trace events for the broadcast-channel simulation, an opt-in
// TraceSink interface to consume them, and aggregating sinks (JSONL
// writer, broadcast-cycle profiler).
//
// BroadcastChannel::Simulate emits a QueryTrace when handed a non-null
// trace pointer; the default is null so the hot path pays one predictable
// branch per event site and nothing else. The experiment driver buffers
// each shard's traces privately and forwards them to the sink ordered by
// global query index after the parallel section, so a sink sees exactly
// the same event stream for any thread count (sinks therefore need no
// locking).
//
// Event model (one QueryTrace per query, events in wall-clock order):
//   kProbe      — initial-probe packet read; pos = absolute packet.
//   kDoze       — receiver sleeping; pos = packet where listening
//                 resumes, dur = time slept in packets (fractional for
//                 the initial sync wait).
//   kIndexRead  — one index-packet read; packet = id within the index
//                 segment; node/depth = originating tree node when the
//                 index annotates its probe path (the D-tree does),
//                 -1 otherwise.
//   kBucketRead — data-bucket read; packet = number of consecutive
//                 packets read (one event per retrieval, not per packet).
//   kLoss       — the immediately preceding read never arrived (erasure).
//   kRetune     — recovery: the client re-tunes to the next index
//                 repetition; attempt = 1-based retry number.
//   kCorruption — the immediately preceding read was delivered with bit
//                 errors and failed its CRC-32 frame check.
//   kFallbackScan — degradation-ladder fallback: the client abandoned the
//                 index and linearly scans for its bucket; pos = scan
//                 start, packet = packets listened to before the bucket,
//                 attempt = 0-based scan cycle.
//   kEpochSwitch — version-skew rung: a delivered frame carried a
//                 different broadcast epoch than the client's current one;
//                 the client abandons partial state and re-tunes into the
//                 new epoch. pos = the revealing read, packet = the newly
//                 observed epoch id, attempt = 1-based switch ordinal.
//   kCacheHit   — the query was answered from the client's semantic
//                 region cache (broadcast/region_cache.h) without tuning
//                 in at all: it is the ONLY event of its query, and the
//                 query's latency / tuning / doze are all zero. pos = the
//                 packet the client would otherwise have probed,
//                 packet = the cached epoch id.

#ifndef DTREE_BROADCAST_TRACE_H_
#define DTREE_BROADCAST_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace dtree::bcast {

enum class TraceEventKind : uint8_t {
  kProbe,
  kDoze,
  kIndexRead,
  kBucketRead,
  kLoss,
  kRetune,
  kCorruption,
  kFallbackScan,
  kEpochSwitch,
  kCacheHit,
};

/// Short stable name used in the JSONL encoding ("probe", "doze",
/// "index", "bucket", "loss", "retune", "corruption_detected",
/// "fallback_scan", "epoch_switch", "cache_hit").
const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kProbe;
  int64_t pos = 0;    ///< absolute packet position within the broadcast
  double dur = 0.0;   ///< kDoze: packets slept
  int packet = -1;    ///< kIndexRead: index packet id;
                      ///< kBucketRead: packets read;
                      ///< kFallbackScan: packets listened to while scanning;
                      ///< kEpochSwitch: newly observed epoch id
  int node = -1;      ///< kIndexRead: originating tree node, -1 unknown
  int depth = -1;     ///< kIndexRead: tree depth of that node, -1 unknown
  int attempt = 0;    ///< kRetune: 1-based retry number;
                      ///< kFallbackScan: 0-based scan cycle;
                      ///< kEpochSwitch: 1-based switch ordinal
};

/// A finished query's outcome summary, mirrored from
/// BroadcastChannel::QueryOutcome by MirrorOutcome (broadcast/access.h).
/// A trace carries one; the fleet hands one to telemetry.
struct QuerySummary {
  double latency = 0.0;
  int tuning_total = 0;
  int retries = 0;
  int lost_packets = 0;
  int corrupted_packets = 0;
  bool fallback_scan = false;
  bool unrecoverable = false;
  /// Versioned-broadcast summary (broadcast/versioned.h). `versioned`
  /// gates the "epoch"/"epoch_switches" JSON fields so single-version
  /// trace bytes are unchanged.
  bool versioned = false;
  uint16_t epoch = 0;      ///< epoch the answer (or give-up) belongs to
  int epoch_switches = 0;  ///< epoch switches the query survived
};

/// Everything observable about one simulated query.
struct QueryTrace : QuerySummary {
  uint64_t query_index = 0;  ///< global (thread-count-independent) index;
                             ///< fleet runs use the client's own query
                             ///< counter (unique per client, not global)
  /// Issuing client for fleet-engine traces (broadcast/fleet.h):
  /// slot + generation * num_clients, thread-count-independent. -1 for
  /// single-query simulations, which omits the "client" JSON field so
  /// pre-fleet trace bytes are unchanged.
  int64_t client_id = -1;
  double x = 0.0;            ///< query point
  double y = 0.0;
  int region = -1;
  double arrival = 0.0;
  /// Answered from the semantic region cache without tuning in. Gates the
  /// "cache_hit" JSON field so cache-off trace bytes are unchanged.
  bool cache_hit = false;
  std::vector<TraceEvent> events;
};

/// Consumer of completed query traces. Called from one thread, in global
/// query order (see file comment); implementations need no locking.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Consume(const QueryTrace& trace) = 0;
};

/// printf-style append; the JSON writers here and in broadcast/telemetry.h
/// build their lines with it.
[[gnu::format(printf, 2, 3)]] void AppendF(std::string* out,
                                           const char* fmt, ...);

/// Appends `s` as a JSON string literal. Labels are cell ids, printable
/// ASCII, but quotes and backslashes must not break the line format.
void AppendJsonString(std::string* out, const std::string& s);

/// Appends `events` as the JSON array a trace line carries under
/// "events" (DESIGN.md §9). The one event encoder: trace lines and
/// telemetry's flight records (broadcast/telemetry.h) both write it.
void AppendEventsJson(std::string* out, const std::vector<TraceEvent>& events);

/// One JSON object per line (see DESIGN.md §9 for the schema). The
/// optional label is written as "cell" into every line, letting several
/// experiment cells share one file.
std::string FormatQueryTraceJson(const QueryTrace& trace,
                                 const std::string& label);

/// Writes each trace as one JSONL line, to a file or an in-memory string.
class JsonlTraceSink : public TraceSink {
 public:
  /// Truncates and writes `path`; ok() reports whether the open worked.
  explicit JsonlTraceSink(const std::string& path);
  /// Appends lines to `*out` instead of a file (testing / in-memory use).
  explicit JsonlTraceSink(std::string* out) : out_(out) {}
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  bool ok() const { return out_ != nullptr || file_ != nullptr; }
  /// Sets the "cell" label stamped into subsequent lines.
  void set_label(std::string label) { label_ = std::move(label); }
  uint64_t lines_written() const { return lines_; }

  void Consume(const QueryTrace& trace) override;

 private:
  std::FILE* file_ = nullptr;
  std::string* out_ = nullptr;
  std::string label_;
  uint64_t lines_ = 0;
};

/// Forwards every trace to each registered sink, in order.
class TeeTraceSink : public TraceSink {
 public:
  explicit TeeTraceSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void Consume(const QueryTrace& trace) override {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) s->Consume(trace);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Aggregates traces into the distributions the paper's means hide:
/// latency / tuning / retry histograms, index-packet reads attributed to
/// the originating tree level, and tuning packets attributed to their
/// position within the broadcast cycle (which part of the cycle costs the
/// client energy).
class CycleProfiler : public TraceSink {
 public:
  /// `cycle_packets` is the channel's cycle length; reads are binned by
  /// (pos mod cycle) into `position_bins` equal slices.
  CycleProfiler(int64_t cycle_packets, int position_bins = 16);

  void Consume(const QueryTrace& trace) override;

  uint64_t queries() const { return queries_; }
  const Histogram& latency_hist() const { return latency_; }
  const Histogram& tuning_hist() const { return tuning_; }
  const Histogram& retries_hist() const { return retries_; }
  const Histogram& doze_hist() const { return doze_; }

  /// Index-packet reads per tree depth (index = depth); reads whose
  /// origin the index did not annotate land in unattributed_reads().
  const std::vector<int64_t>& level_reads() const { return level_reads_; }
  int64_t unattributed_reads() const { return unattributed_reads_; }

  /// Tuning (awake) packets per cycle-position bin; all read kinds.
  const std::vector<int64_t>& position_reads() const {
    return position_reads_;
  }
  int64_t cycle_packets() const { return cycle_packets_; }

 private:
  void BinPosition(int64_t pos, int64_t packets);

  int64_t cycle_packets_;
  uint64_t queries_ = 0;
  Histogram latency_;
  Histogram tuning_;
  Histogram retries_;
  Histogram doze_;
  std::vector<int64_t> level_reads_;
  int64_t unattributed_reads_ = 0;
  std::vector<int64_t> position_reads_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_TRACE_H_
