// The client access protocol on the (1, m) channel, written once: a
// resumable state machine over absolute broadcast time.
//
// A client probes one packet to learn where the next index segment
// starts, dozes to it, descends the index while dozing between index
// packets, then dozes to its data bucket and reads it. On top of that
// sit the rungs of the degradation ladder: probe retries, re-tunes to a
// later index repetition after a failed read, a linear-scan fallback, and
// the version-skew rung that abandons partial state when a delivered
// frame carries a newer epoch. DESIGN.md §17 describes the machine.
//
// The machine keeps one QueryState per query and advances it with
// AccessProtocol::Wake(state, t): the client wakes at t, does what its
// phase says, and either names its next wake-up or finishes. Three
// drivers run it:
//  * BroadcastChannel::Simulate — one query to completion on a one-span
//    timeline whose only span never ends;
//  * BroadcastTimeline::Simulate — one query to completion on the
//    timeline's own spans;
//  * the fleet engine (broadcast/fleet.h) — each query to its last
//    wake-up at issue; completions in heap order.
// A driver observes a query's events through its trace (QueryState::qt):
// trace sinks and fleet telemetry alike read them from there.
// Because the machine works in absolute time and keeps no fault process
// resident, the drivers agree bit for bit: a query's outcome is a pure
// function of (spans, traces, arrival, loss stream).

#ifndef DTREE_BROADCAST_ACCESS_H_
#define DTREE_BROADCAST_ACCESS_H_

#include <cmath>
#include <cstdint>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/trace.h"
#include "broadcast/versioned.h"
#include "common/status.h"

namespace dtree::bcast {

/// The phase a client wakes up into.
enum class AccessPhase : uint8_t {
  kStart,       ///< issued at `arrival`; computes the probe
  kProbe,       ///< initial probe burst
  kIndexRead,   ///< reads trace->packets[step] of the current descent
  kBucketRead,  ///< contiguous bucket retrieval
  kDone,        ///< answered or given up; `out` is final
  kAborted,     ///< the driver could not supply a trace (its error)
};

/// One query's protocol state. Everything the machine remembers between
/// two wake-ups lives here; the fleet embeds it in its per-client record.
struct QueryState {
  double arrival = 0.0;      ///< absolute arrival time
  uint64_t loss_stream = 0;  ///< keys the query's fault sub-streams
  /// kProbe: the packet being probed. Afterwards: where the current
  /// attempt started; once done, the completion position.
  int64_t pos = 0;
  int64_t seg_start = 0;     ///< start of the index segment being read
  BroadcastChannel::QueryOutcome out;
  /// Index search of the query point under span `span`'s index.
  const ProbeTrace* trace = nullptr;
  QueryTrace* qt = nullptr;  ///< event output; null when unobserved
  int32_t span = 0;          ///< span whose frames the client trusts
  /// Restart ordinal keying LossProcess::AttemptStream. Fault re-tunes
  /// and epoch switches both advance it.
  int32_t attempt = 0;
  int32_t step = 0;          ///< next entry of trace->packets to read
  /// Read ordinal of the current attempt's first failing read (index
  /// reads first, then bucket packets); -1 when the attempt succeeds.
  int32_t fail_at = -1;
  bool fail_corrupt = false;  ///< that read fails its CRC, not lost
  AccessPhase phase = AccessPhase::kStart;

  bool finished() const {
    return phase == AccessPhase::kDone || phase == AccessPhase::kAborted;
  }
};

/// One bucket read back to back: packets read (the failing or revealing
/// one included), and whether a read failed or revealed a newer epoch.
struct BucketScan {
  int read = 0;
  bool failed = false;
  bool switched = false;
};

/// The first packet a client arriving at time t can hear: the next packet
/// *start*. A packet whose transmission began exactly at t is already in
/// flight, so this is floor(t) + 1 (for non-integer t, ceil(t)).
inline int64_t FirstHeardPacket(double t) {
  return static_cast<int64_t>(std::floor(t)) + 1;
}

/// What the machine needs from whoever drives it. The machine never
/// probes an index itself.
class AccessDriver {
 public:
  /// The query point's index search under span `span`'s index, asked for
  /// whenever the query adopts a span. Null aborts the query; the driver
  /// keeps the reason.
  virtual const ProbeTrace* TraceFor(QueryState& q, int span) = 0;
  /// A delivered frame read at `at` carried a newer epoch, now in
  /// q.out.epoch: a trusted epoch change.
  virtual void OnEpochChange(QueryState& /*q*/, int64_t /*at*/) {}

 protected:
  ~AccessDriver() = default;
};

/// The state machine, bound to one broadcast and one driver. Const and
/// stateless across queries: one instance serves every query it drives.
class AccessProtocol {
 public:
  /// Loss options and frame size come from span 0's channel.
  AccessProtocol(TimelineView air, AccessDriver* driver);

  /// Wakes q at time t: its arrival for kStart, otherwise the time the
  /// previous Wake returned. Returns the next wake-up time, or once q is
  /// kDone, the completion time.
  double Wake(QueryState& q, double t) const;

 private:
  double Start(QueryState& q) const;
  double Probe(QueryState& q) const;
  double StartAttempt(QueryState& q, bool after_fault) const;
  double ScheduleIndexRead(QueryState& q, int64_t p) const;
  double IndexRead(QueryState& q, int64_t at) const;
  double ScheduleBucket(QueryState& q, int64_t p) const;
  double BucketRead(QueryState& q, int64_t data_at) const;
  double FailAttempt(QueryState& q, int64_t p) const;
  double EpochRestart(QueryState& q, int64_t at) const;
  double FallbackScan(QueryState& q, int64_t from, GiveUpStage stage) const;
  double Finish(QueryState& q, int64_t done) const;
  double Abort(QueryState& q) const;

  bool AdoptSpan(QueryState& q, int64_t pos) const;
  bool ObserveSwitch(QueryState& q, int64_t at) const;
  int64_t NextSegmentStart(const QueryState& q, int64_t t) const;
  int64_t NextBucketStart(const QueryState& q, int64_t p) const;
  BucketScan ReadBucket(QueryState& q, int64_t data_at, int fail_at,
                        bool fail_corrupt) const;
  void RecordFault(QueryState& q, bool corrupt, int64_t at) const;

  void EmitAt(const QueryState& q, TraceEventKind kind, int64_t pos,
              int packet = -1, int attempt = 0) const;
  void EmitDoze(const QueryState& q, int64_t resume_at, double dur) const;

  TimelineView air_;
  AccessDriver* driver_;
  const LossOptions& loss_;
  int frame_bits_;
  bool faults_;
};

/// Runs one query to completion on `air`, with `traces[s]` the query
/// point's index search under span s's index (already validated). The
/// synchronous driver behind BroadcastChannel::Simulate and
/// BroadcastTimeline::Simulate; makes no heap allocation. `trace_out`,
/// when set, receives the events and the outcome summary (with the epoch
/// fields when `versioned`).
BroadcastChannel::QueryOutcome SimulateQuery(TimelineView air,
                                             const ProbeTrace* traces,
                                             double arrival,
                                             uint64_t loss_stream,
                                             bool versioned,
                                             QueryTrace* trace_out);

/// The indexless client (BroadcastChannel::SimulateNoIndex): listens from
/// arrival on a pure-data cycle until its bucket has gone by, playing the
/// same fault processes on its own bucket packets, one NoIndexStream per
/// pass. InvalidArgument for a region outside the channel or an arrival
/// that is not finite and non-negative.
Result<BroadcastChannel::QueryOutcome> SimulateNoIndexQuery(
    const BroadcastChannel& channel, int region, double arrival,
    uint64_t loss_stream);

/// Mirrors an outcome's summary fields into `s` (a trace, or the fleet's
/// telemetry summary); the epoch fields only when `versioned`.
void MirrorOutcome(const BroadcastChannel::QueryOutcome& out, bool versioned,
                   QuerySummary* s);

/// Marks `qt` as answered from the region cache under `epoch`: its only
/// event is kCacheHit at the packet the client would have probed.
void TraceCacheHit(uint16_t epoch, QueryTrace* qt);

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_ACCESS_H_
