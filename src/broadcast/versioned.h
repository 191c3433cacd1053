// Versioned broadcast: a timeline of epoch spans, the layout the client
// access protocol reads when the dataset changes between cycles.
//
// The server rebuilds its index between cycles when the dataset changes
// (src/dtree/versioned.h); on the air this appears as a sequence of
// *epoch spans*: span s broadcasts epoch e_s's cycle layout for a whole
// number of cycles, then the next span takes over at a cycle boundary.
// Every frame is stamped with its epoch (broadcast/frame.h), so a client
// that tuned in during epoch e and dozes across a switch discovers the
// skew on its next *delivered* read: the frame's CRC verifies but its
// epoch differs from the client's. Pointers cached from the old epoch are
// then worthless — the subdivision, index layout, and bucket numbering
// may all have changed — so the client abandons partial state, adopts the
// new epoch, and re-tunes to the next index segment. Each such switch
// consumes one unit of LossOptions::max_epoch_switches; a query that
// observes more switches than the budget gives up with
// GiveUpStage::kEpochChurn rather than risk a wrong answer. The protocol
// itself is broadcast/access.h; a plain channel is the one-span case.

#ifndef DTREE_BROADCAST_VERSIONED_H_
#define DTREE_BROADCAST_VERSIONED_H_

#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "common/status.h"

namespace dtree::bcast {

/// One epoch's stretch of the broadcast schedule. The channel is borrowed
/// (not owned) and must outlive the timeline.
struct EpochSpan {
  const BroadcastChannel* channel = nullptr;
  uint16_t epoch = 0;
  /// Whole broadcast cycles this span lasts. Must be >= 1 for every span
  /// except the last, which runs forever (its value is ignored).
  int64_t cycles = 1;
};

/// Read-only view of a sequence of epoch spans: the only way the access
/// protocol (broadcast/access.h) sees layout over time. Span s occupies
/// absolute packets [span_start(s), span_end(s)); the last span never
/// ends (span_end == INT64_MAX). A plain channel is a one-span view.
class TimelineView {
 public:
  /// `bounds` has n + 1 entries: bounds[s] is span s's start, bounds[0]
  /// is 0 and bounds[n] is INT64_MAX. Both arrays are borrowed.
  TimelineView(const EpochSpan* spans, const int64_t* bounds, int n)
      : spans_(spans), bounds_(bounds), n_(n) {}

  /// The one-span view of a plain channel: `span` from 0, forever.
  static TimelineView Single(const EpochSpan* span) {
    return TimelineView(span, kSingleBounds, 1);
  }

  int num_spans() const { return n_; }
  const EpochSpan& span(int s) const { return spans_[s]; }
  const BroadcastChannel& channel(int s) const { return *spans_[s].channel; }
  int64_t span_start(int s) const { return bounds_[s]; }
  int64_t span_end(int s) const { return bounds_[s + 1]; }
  /// Span containing absolute packet position pos (pos >= 0).
  int SpanAt(int64_t pos) const;

 private:
  static constexpr int64_t kSingleBounds[2] = {0, INT64_MAX};

  const EpochSpan* spans_;
  const int64_t* bounds_;
  int n_;
};

/// An immutable sequence of epoch spans with cycle-aligned absolute start
/// positions. Span s occupies packets [start(s), end(s)); the last span is
/// open-ended (end == INT64_MAX).
class BroadcastTimeline {
 public:
  /// Validates and precomputes span starts. Requires at least one span,
  /// a channel on every span, matching packet capacities across spans
  /// (the frame wire format — and hence per-read corruption exposure —
  /// must not change mid-broadcast), and cycles >= 1 on all but the last
  /// span. Loss options are read from span 0's channel and apply to the
  /// whole timeline.
  static Result<BroadcastTimeline> Create(std::vector<EpochSpan> spans);

  TimelineView view() const {
    return TimelineView(spans_.data(), start_.data(), num_spans());
  }
  int num_spans() const { return static_cast<int>(spans_.size()); }
  const EpochSpan& span(int s) const { return spans_[static_cast<size_t>(s)]; }
  const BroadcastChannel& channel(int s) const {
    return *spans_[static_cast<size_t>(s)].channel;
  }
  /// Absolute packet position where span s begins (span 0 starts at 0).
  int64_t span_start(int s) const { return start_[static_cast<size_t>(s)]; }
  /// One past the last packet of span s; INT64_MAX for the last span.
  int64_t span_end(int s) const { return start_[static_cast<size_t>(s) + 1]; }
  /// Span containing absolute packet position pos (pos >= 0).
  int SpanAt(int64_t pos) const { return view().SpanAt(pos); }

  /// Simulates the full access protocol (broadcast/access.h) for a client
  /// arriving at absolute continuous time `arrival` >= 0, with `traces[s]`
  /// the index search the query point resolves to under span s's index
  /// (one trace per span — the client re-probes the *new* index after an
  /// epoch switch). Non-finite or negative arrivals and a trace count
  /// other than num_spans() return InvalidArgument.
  ///
  /// The protocol is BroadcastChannel::Simulate's — initial probe, index
  /// descent, bucket retrieval, fault ladder — on this timeline's spans,
  /// so the version-skew rung can fire. QueryOutcome::epoch reports the
  /// epoch the answer (or give-up) belongs to and epoch_switches the
  /// switches survived; a query exceeding loss.max_epoch_switches gives up
  /// with GiveUpStage::kEpochChurn. `trace_out`, when non-null, receives
  /// kEpochSwitch events and has `versioned` set so its JSONL line carries
  /// the epoch summary fields.
  Result<BroadcastChannel::QueryOutcome> Simulate(
      const std::vector<ProbeTrace>& traces, double arrival,
      uint64_t loss_stream, QueryTrace* trace_out = nullptr) const;

 private:
  BroadcastTimeline() = default;

  std::vector<EpochSpan> spans_;
  /// start_[s] = absolute start of span s; start_[num_spans] = INT64_MAX.
  std::vector<int64_t> start_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_VERSIONED_H_
