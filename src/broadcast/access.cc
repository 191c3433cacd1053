#include "broadcast/access.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "broadcast/frame.h"
#include "broadcast/loss.h"
#include "common/check.h"

namespace dtree::bcast {

namespace {

enum class ReadFault : uint8_t { kNone, kLost, kCorrupted };

/// A query's two fault processes on one sub-stream; each is constructed
/// only when its model is active. One packet read draws loss first — a
/// lost packet has no bits to corrupt — and the corruption process only
/// for delivered packets.
class FaultDraws {
 public:
  FaultDraws(const LossOptions& loss, int frame_bits, uint64_t query_stream,
             uint64_t sub_stream) {
    if (loss.enabled()) loss_.emplace(loss, query_stream, sub_stream);
    if (loss.corruption.enabled()) {
      corrupt_.emplace(loss.corruption, frame_bits, query_stream, sub_stream);
    }
  }

  ReadFault Next() {
    if (loss_.has_value() && loss_->NextLost()) return ReadFault::kLost;
    if (corrupt_.has_value() && corrupt_->NextCorrupted()) {
      return ReadFault::kCorrupted;
    }
    return ReadFault::kNone;
  }

 private:
  std::optional<LossProcess> loss_;
  std::optional<CorruptionProcess> corrupt_;
};

/// Read ordinal of the first failing read among `reads` reads drawn from
/// `sub_stream`, or -1 when all succeed; *corrupt tells a CRC reject from
/// a loss. No draw is made after the first failure, so this equals
/// drawing lazily at each read: a sub-stream's draws depend only on its
/// key, never on what another phase drew. Constructs nothing when no
/// fault model is active.
int FirstFailedRead(const LossOptions& loss, int frame_bits,
                    uint64_t query_stream, uint64_t sub_stream, int reads,
                    bool* corrupt) {
  if (!loss.any_fault()) return -1;
  FaultDraws draws(loss, frame_bits, query_stream, sub_stream);
  for (int i = 0; i < reads; ++i) {
    const ReadFault f = draws.Next();
    if (f != ReadFault::kNone) {
      *corrupt = f == ReadFault::kCorrupted;
      return i;
    }
  }
  return -1;
}

/// Reads `packets` contiguous bucket packets from data_at, charging them
/// to out->tuning_data. Read `fail_at` (relative to the bucket; -1 none)
/// fails; a delivered packet at or beyond `span_end` belongs to a newer
/// epoch. Fault draws precede the epoch check.
BucketScan ScanBucket(int packets, int64_t data_at, int64_t span_end,
                      int fail_at, bool fail_corrupt,
                      BroadcastChannel::QueryOutcome* out) {
  BucketScan r;
  for (int b = 0; b < packets; ++b) {
    ++out->tuning_data;
    ++r.read;
    if (b == fail_at) {
      ++(fail_corrupt ? out->corrupted_packets : out->lost_packets);
      r.failed = true;
      break;
    }
    if (data_at + b >= span_end) {
      r.switched = true;
      break;
    }
  }
  return r;
}

/// The synchronous drivers' hooks: the caller probed every span up front.
class CallerTraces final : public AccessDriver {
 public:
  explicit CallerTraces(const ProbeTrace* traces) : traces_(traces) {}
  const ProbeTrace* TraceFor(QueryState& /*q*/, int span) override {
    return &traces_[span];
  }

 private:
  const ProbeTrace* traces_;
};

}  // namespace

AccessProtocol::AccessProtocol(TimelineView air, AccessDriver* driver)
    : air_(air),
      driver_(driver),
      loss_(air.channel(0).loss_options()),
      frame_bits_(FrameBits(air.channel(0).packet_capacity())),
      faults_(loss_.any_fault()) {}

double AccessProtocol::Wake(QueryState& q, double t) const {
  switch (q.phase) {
    case AccessPhase::kStart:
      return Start(q);
    case AccessPhase::kProbe:
      return Probe(q);
    case AccessPhase::kIndexRead:
      return IndexRead(q, static_cast<int64_t>(t));
    case AccessPhase::kBucketRead:
      return BucketRead(q, static_cast<int64_t>(t));
    case AccessPhase::kDone:
    case AccessPhase::kAborted:
      break;
  }
  DTREE_CHECK(false);  // a finished query is never woken
  return t;
}

// Issue: the client probes the first packet it can hear. The span on the
// air there is the issue-time span; a probe retry may still cross into
// the next one (AdoptSpan).
double AccessProtocol::Start(QueryState& q) const {
  q.out = BroadcastChannel::QueryOutcome{};
  q.pos = FirstHeardPacket(q.arrival);
  q.span = air_.SpanAt(q.pos);
  q.trace = driver_->TraceFor(q, q.span);
  if (q.trace == nullptr) return Abort(q);
  EmitDoze(q, q.pos, static_cast<double>(q.pos) - q.arrival);
  q.phase = AccessPhase::kProbe;
  return static_cast<double>(q.pos);
}

// The initial probe burst. Consecutive packets are read back to back (the
// client is awake throughout), so the whole burst — and on budget
// exhaustion the fallback scan — runs inside this one wake-up. Every
// packet carries the next-index pointer, so a failed probe costs one
// packet and the client reads the next; bounded by the re-tune budget.
double AccessProtocol::Probe(QueryState& q) const {
  q.out.tuning_probe = 1;
  EmitAt(q, TraceEventKind::kProbe, q.pos);
  if (faults_) {
    FaultDraws draws(loss_, frame_bits_, q.loss_stream,
                     LossProcess::kProbeStream);
    for (;;) {
      const ReadFault f = draws.Next();
      if (f == ReadFault::kNone) break;
      RecordFault(q, f == ReadFault::kCorrupted, q.pos);
      if (q.out.tuning_probe > loss_.max_retries) {
        // Never heard a frame: the scan starts in the span on the air.
        if (!AdoptSpan(q, q.pos + 1)) return Abort(q);
        return FallbackScan(q, q.pos + 1, GiveUpStage::kProbeBudget);
      }
      ++q.out.tuning_probe;
      ++q.pos;
      EmitAt(q, TraceEventKind::kProbe, q.pos);
    }
  }
  // The last probe read is the first delivered frame: its span becomes the
  // tune-in epoch without consuming a switch.
  if (!AdoptSpan(q, q.pos)) return Abort(q);
  ++q.pos;
  q.attempt = 0;
  return StartAttempt(q, /*after_fault=*/false);
}

// Begins restart q.attempt at q.pos. Where the attempt's fixed read
// sequence (the descent, then the bucket) first fails is drawn now from
// AttemptStream(attempt); then the client dozes to the next index segment,
// or for an empty index straight to its bucket. Fault re-tunes count
// toward out.retries; epoch restarts re-key the draws without doing so.
double AccessProtocol::StartAttempt(QueryState& q, bool after_fault) const {
  if (after_fault) {
    ++q.out.retries;
    EmitAt(q, TraceEventKind::kRetune, q.pos, -1, q.out.retries);
  }
  const int reads = static_cast<int>(q.trace->packets.size()) +
                    air_.channel(q.span).bucket_packets();
  q.fail_at =
      FirstFailedRead(loss_, frame_bits_, q.loss_stream,
                      LossProcess::AttemptStream(q.attempt), reads,
                      &q.fail_corrupt);
  q.seg_start = NextSegmentStart(q, q.pos);
  DTREE_CHECK(q.seg_start >= q.pos);
  q.step = 0;
  if (q.trace->packets.empty()) return ScheduleBucket(q, q.seg_start);
  return ScheduleIndexRead(q, q.pos);
}

// Dozes until trace->packets[step]. A packet at or before the one just
// read has already gone by (a backward pointer in a DAG-shaped index):
// the client waits for the next index repetition that still has it
// ahead. p - packet_id is positive there: the jump follows a read, so
// p = seg_start' + prev_id + 1 with seg_start' >= 0 and packet_id <=
// prev_id.
double AccessProtocol::ScheduleIndexRead(QueryState& q, int64_t p) const {
  const int packet_id = q.trace->packets[static_cast<size_t>(q.step)];
  int64_t at = q.seg_start + packet_id;
  if (at < p) {
    q.seg_start = NextSegmentStart(q, p - packet_id);
    at = q.seg_start + packet_id;
    DTREE_CHECK(at >= p);
  }
  EmitDoze(q, at, static_cast<double>(at - p));
  q.phase = AccessPhase::kIndexRead;
  return static_cast<double>(at);
}

double AccessProtocol::IndexRead(QueryState& q, int64_t at) const {
  const ProbeTrace& trace = *q.trace;
  const size_t i = static_cast<size_t>(q.step);
  if (q.qt != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kIndexRead;
    e.pos = at;
    e.packet = trace.packets[i];
    if (trace.origins.size() == trace.packets.size()) {
      e.node = trace.origins[i].node;
      e.depth = trace.origins[i].depth;
    }
    q.qt->events.push_back(e);
  }
  ++q.out.tuning_index;
  if (q.step == q.fail_at) {
    RecordFault(q, q.fail_corrupt, at);
    return FailAttempt(q, at + 1);
  }
  // A delivered frame: the fault draw came first, then the epoch check
  // (a lost or corrupted frame reveals no epoch stamp).
  if (at >= air_.span_end(q.span)) return EpochRestart(q, at);
  ++q.step;
  if (i + 1 < trace.packets.size()) return ScheduleIndexRead(q, at + 1);
  return ScheduleBucket(q, at + 1);
}

double AccessProtocol::ScheduleBucket(QueryState& q, int64_t p) const {
  const int64_t data_at = NextBucketStart(q, p);
  EmitDoze(q, data_at, static_cast<double>(data_at - p));
  q.phase = AccessPhase::kBucketRead;
  return static_cast<double>(data_at);
}

double AccessProtocol::BucketRead(QueryState& q, int64_t data_at) const {
  // The attempt's read ordinals count the descent first.
  const int descent = static_cast<int>(q.trace->packets.size());
  const BucketScan r = ReadBucket(
      q, data_at, q.fail_at < 0 ? -1 : q.fail_at - descent, q.fail_corrupt);
  // A bucket from the old epoch is no answer: restart in the new one.
  if (r.switched) return EpochRestart(q, data_at + r.read - 1);
  if (r.failed) return FailAttempt(q, data_at + r.read);
  return Finish(q, data_at + air_.channel(q.span).bucket_packets());
}

// A read of the current attempt failed at p - 1: re-tune to the next index
// repetition, or fall off the retry rung. The budget counts fault re-tunes
// only, so epoch restarts never consume it.
double AccessProtocol::FailAttempt(QueryState& q, int64_t p) const {
  q.pos = p;
  if (q.out.retries >= loss_.max_retries) {
    return FallbackScan(q, p, GiveUpStage::kRetryBudget);
  }
  ++q.attempt;
  return StartAttempt(q, /*after_fault=*/true);
}

double AccessProtocol::EpochRestart(QueryState& q, int64_t at) const {
  if (!ObserveSwitch(q, at)) return static_cast<double>(q.pos);
  q.pos = at + 1;
  ++q.attempt;  // fresh draw streams; not a fault re-tune
  return StartAttempt(q, /*after_fault=*/false);
}

// The ladder's final rung, run inside the current wake-up (the scan is
// continuous listening). With the fallback disabled the query gives up at
// `from`. Otherwise the client stops trusting the index and listens to
// every packet until its bucket has gone by, for at most
// fallback_scan_cycles failed cycles. It recognizes its bucket by content
// (cf. MakeDataBucketPackets), so scanned packets are only counted,
// charged to tuning_index like the indexless client. The first packet
// past the span reveals a switch before the bucket comes: such a
// truncated scan consumes no cycle (the cycle budget bounds faults, the
// switch budget bounds truncations), and the bucket is looked up again in
// the new span.
double AccessProtocol::FallbackScan(QueryState& q, int64_t from,
                                    GiveUpStage stage) const {
  int cycle = 0;
  while (cycle < loss_.fallback_scan_cycles) {
    q.out.fallback_scan = true;
    const int64_t data_at = NextBucketStart(q, from);
    const int64_t reveal = std::max(from, air_.span_end(q.span));
    if (reveal < data_at) {
      const int listened = static_cast<int>(reveal + 1 - from);
      q.out.tuning_index += listened;
      EmitAt(q, TraceEventKind::kFallbackScan, from, listened, cycle);
      if (!ObserveSwitch(q, reveal)) return static_cast<double>(q.pos);
      from = reveal + 1;
      continue;
    }
    const int listened = static_cast<int>(data_at - from);
    q.out.tuning_index += listened;
    EmitAt(q, TraceEventKind::kFallbackScan, from, listened, cycle);
    const int bucket_packets = air_.channel(q.span).bucket_packets();
    bool corrupt = false;
    const int fail_at = FirstFailedRead(
        loss_, frame_bits_, q.loss_stream, LossProcess::FallbackStream(cycle),
        bucket_packets, &corrupt);
    const BucketScan r = ReadBucket(q, data_at, fail_at, corrupt);
    if (r.switched) {
      const int64_t at = data_at + r.read - 1;
      if (!ObserveSwitch(q, at)) return static_cast<double>(q.pos);
      from = at + 1;
      continue;  // the bucket was the old epoch's: rescan, same cycle
    }
    if (!r.failed) return Finish(q, data_at + bucket_packets);
    from = data_at + r.read;  // listen past the bad packet
    ++cycle;
  }
  q.out.unrecoverable = true;
  q.out.give_up =
      q.out.fallback_scan ? GiveUpStage::kFallbackBudget : stage;
  return Finish(q, from);
}

double AccessProtocol::Finish(QueryState& q, int64_t done) const {
  q.out.latency = static_cast<double>(done) - q.arrival;
  q.pos = done;
  q.phase = AccessPhase::kDone;
  return static_cast<double>(done);
}

double AccessProtocol::Abort(QueryState& q) const {
  q.phase = AccessPhase::kAborted;
  return q.arrival;
}

// Adopts the span broadcasting at `pos` as the tune-in epoch — how the
// probe learns the current epoch, without consuming a switch — and asks
// the driver for its index search when it is a new span.
bool AccessProtocol::AdoptSpan(QueryState& q, int64_t pos) const {
  const int s = air_.SpanAt(pos);
  q.out.epoch = air_.span(s).epoch;
  if (s == q.span) return true;
  q.span = s;
  q.trace = driver_->TraceFor(q, s);
  return q.trace != nullptr;
}

// Registers the epoch switch a delivered read at `at` revealed: counts and
// emits it, adopts the newer span, tells the driver, and asks for the new
// span's index search (pointers from another epoch are worthless). False
// when the query ended: the switch budget ran out (kEpochChurn, latency
// through the revealing read) or the driver aborted.
bool AccessProtocol::ObserveSwitch(QueryState& q, int64_t at) const {
  const int s = air_.SpanAt(at);
  const uint16_t epoch = air_.span(s).epoch;
  ++q.out.epoch_switches;
  EmitAt(q, TraceEventKind::kEpochSwitch, at, epoch, q.out.epoch_switches);
  q.span = s;
  q.out.epoch = epoch;
  driver_->OnEpochChange(q, at);
  if (q.out.epoch_switches > loss_.max_epoch_switches) {
    q.out.unrecoverable = true;
    q.out.give_up = GiveUpStage::kEpochChurn;
    Finish(q, at + 1);
    return false;
  }
  q.trace = driver_->TraceFor(q, s);
  if (q.trace == nullptr) {
    Abort(q);
    return false;
  }
  return true;
}

// Smallest index-segment start >= t in the layout of q's span. Positions
// beyond the span extrapolate its layout; the frames actually broadcast
// there belong to the next epoch, and the reads will say so. Positions
// only move forward from the probe, which lies in the span, so t is never
// before the span start.
int64_t AccessProtocol::NextSegmentStart(const QueryState& q,
                                         int64_t t) const {
  const BroadcastChannel& ch = air_.channel(q.span);
  const int64_t start = air_.span_start(q.span);
  const int64_t cycle = ch.cycle_packets();
  const int64_t local = t - start;
  DTREE_CHECK(local >= 0);
  const int64_t base = start + (local / cycle) * cycle;
  const int64_t in_cycle = local % cycle;
  for (int j = 0; j < ch.m(); ++j) {
    if (ch.IndexSegmentStart(j) >= in_cycle) {
      return base + ch.IndexSegmentStart(j);
    }
  }
  return base + cycle + ch.IndexSegmentStart(0);
}

// Next occurrence of q's bucket at or after p, in the layout of q's span.
int64_t AccessProtocol::NextBucketStart(const QueryState& q,
                                        int64_t p) const {
  const BroadcastChannel& ch = air_.channel(q.span);
  const int64_t start = air_.span_start(q.span);
  const int64_t cycle = ch.cycle_packets();
  int64_t data_at = start + ((p - start) / cycle) * cycle +
                    ch.BucketStart(q.trace->region);
  if (data_at < p) data_at += cycle;
  return data_at;
}

BucketScan AccessProtocol::ReadBucket(QueryState& q, int64_t data_at,
                                      int fail_at, bool fail_corrupt) const {
  const BucketScan r =
      ScanBucket(air_.channel(q.span).bucket_packets(), data_at,
                 air_.span_end(q.span), fail_at, fail_corrupt, &q.out);
  EmitAt(q, TraceEventKind::kBucketRead, data_at, r.read);
  if (r.failed) {
    EmitAt(q,
           fail_corrupt ? TraceEventKind::kCorruption : TraceEventKind::kLoss,
           data_at + r.read - 1);
  }
  return r;
}

void AccessProtocol::RecordFault(QueryState& q, bool corrupt,
                                 int64_t at) const {
  if (corrupt) {
    ++q.out.corrupted_packets;
    EmitAt(q, TraceEventKind::kCorruption, at);
  } else {
    ++q.out.lost_packets;
    EmitAt(q, TraceEventKind::kLoss, at);
  }
}

void AccessProtocol::EmitAt(const QueryState& q, TraceEventKind kind,
                            int64_t pos, int packet, int attempt) const {
  if (q.qt == nullptr) return;
  TraceEvent e;
  e.kind = kind;
  e.pos = pos;
  e.packet = packet;
  e.attempt = attempt;
  q.qt->events.push_back(e);
}

void AccessProtocol::EmitDoze(const QueryState& q, int64_t resume_at,
                              double dur) const {
  if (q.qt == nullptr || !(dur > 0.0)) return;
  TraceEvent e;
  e.kind = TraceEventKind::kDoze;
  e.pos = resume_at;
  e.dur = dur;
  q.qt->events.push_back(e);
}

BroadcastChannel::QueryOutcome SimulateQuery(TimelineView air,
                                             const ProbeTrace* traces,
                                             double arrival,
                                             uint64_t loss_stream,
                                             bool versioned,
                                             QueryTrace* trace_out) {
  CallerTraces driver(traces);
  const AccessProtocol protocol(air, &driver);
  QueryState q;
  q.arrival = arrival;
  q.loss_stream = loss_stream;
  q.qt = trace_out;
  double t = arrival;
  while (!q.finished()) t = protocol.Wake(q, t);
  DTREE_CHECK(q.phase == AccessPhase::kDone);  // caller traces never fail
  if (trace_out != nullptr) MirrorOutcome(q.out, versioned, trace_out);
  return q.out;
}

Result<BroadcastChannel::QueryOutcome> SimulateNoIndexQuery(
    const BroadcastChannel& channel, int region, double arrival,
    uint64_t loss_stream) {
  if (region < 0 || region >= channel.num_regions()) {
    return Status::InvalidArgument("region outside the channel");
  }
  // NaN compares false against the bound, so the finiteness check is
  // load-bearing: a NaN would otherwise flow into fmod and floor.
  if (!std::isfinite(arrival) || arrival < 0.0) {
    return Status::InvalidArgument("arrival must be finite and non-negative");
  }
  // Pure-data cycle: buckets back to back, no index segments, arrivals
  // wrapped into it. Like the indexed client, listening begins at the
  // first packet the client can hear.
  const LossOptions& loss = channel.loss_options();
  const int bucket_packets = channel.bucket_packets();
  const int64_t cycle = channel.data_packets();
  const double a = std::fmod(arrival, static_cast<double>(cycle));
  int64_t listen_from = FirstHeardPacket(a);
  int64_t data_at = static_cast<int64_t>(region) * bucket_packets;
  if (data_at < listen_from) data_at += cycle;
  BroadcastChannel::QueryOutcome out;
  // The client listens continuously, so only a fault on one of its own
  // bucket packets matters. A failed bucket costs another full pure-data
  // cycle of listening (counted in retries, like the indexed client's
  // re-tunes), up to max_retries extra passes; pass k draws from
  // NoIndexStream(k), disjoint from every indexed-path stream.
  for (int pass = 0; pass <= loss.max_retries; ++pass) {
    if (pass > 0) ++out.retries;
    out.tuning_index += static_cast<int>(data_at - listen_from);
    bool corrupt = false;
    const int fail_at = FirstFailedRead(
        loss, FrameBits(channel.packet_capacity()), loss_stream,
        LossProcess::NoIndexStream(pass), bucket_packets, &corrupt);
    const BucketScan r =
        ScanBucket(bucket_packets, data_at, std::numeric_limits<int64_t>::max(),
                   fail_at, corrupt, &out);
    if (!r.failed) {
      out.latency = static_cast<double>(data_at + bucket_packets) - a;
      return out;
    }
    listen_from = data_at + r.read;  // listen past the bad packet
    data_at += cycle;
  }
  out.unrecoverable = true;
  out.give_up = GiveUpStage::kRetryBudget;
  out.latency = static_cast<double>(listen_from) - a;
  return out;
}

void MirrorOutcome(const BroadcastChannel::QueryOutcome& out, bool versioned,
                   QuerySummary* s) {
  s->latency = out.latency;
  s->tuning_total = out.tuning_total();
  s->retries = out.retries;
  s->lost_packets = out.lost_packets;
  s->corrupted_packets = out.corrupted_packets;
  s->fallback_scan = out.fallback_scan;
  s->unrecoverable = out.unrecoverable;
  if (versioned) {
    s->versioned = true;
    s->epoch = out.epoch;
    s->epoch_switches = out.epoch_switches;
  }
}

void TraceCacheHit(uint16_t epoch, QueryTrace* qt) {
  qt->cache_hit = true;
  TraceEvent e;
  e.kind = TraceEventKind::kCacheHit;
  e.pos = FirstHeardPacket(qt->arrival);
  e.packet = static_cast<int>(epoch);
  qt->events.push_back(e);
}

}  // namespace dtree::bcast
