#include "broadcast/versioned.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "broadcast/access.h"
#include "common/check.h"

namespace dtree::bcast {

Result<BroadcastTimeline> BroadcastTimeline::Create(
    std::vector<EpochSpan> spans) {
  if (spans.empty()) {
    return Status::InvalidArgument("timeline needs at least one epoch span");
  }
  for (size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].channel == nullptr) {
      return Status::InvalidArgument("epoch span without a channel");
    }
    if (spans[s].channel->packet_capacity() !=
        spans[0].channel->packet_capacity()) {
      return Status::InvalidArgument(
          "epoch spans must share one packet capacity: the frame wire "
          "format cannot change mid-broadcast");
    }
    if (s + 1 < spans.size() && spans[s].cycles < 1) {
      return Status::InvalidArgument(
          "every epoch span but the last needs cycles >= 1");
    }
  }
  BroadcastTimeline tl;
  tl.start_.resize(spans.size() + 1);
  tl.start_[0] = 0;
  for (size_t s = 0; s + 1 < spans.size(); ++s) {
    tl.start_[s + 1] =
        tl.start_[s] + spans[s].cycles * spans[s].channel->cycle_packets();
  }
  tl.start_[spans.size()] = std::numeric_limits<int64_t>::max();
  tl.spans_ = std::move(spans);
  return tl;
}

int TimelineView::SpanAt(int64_t pos) const {
  DTREE_CHECK(pos >= 0);
  // First span whose start exceeds pos; pos lives in the one before it.
  const int s =
      static_cast<int>(std::upper_bound(bounds_, bounds_ + n_ + 1, pos) -
                       bounds_) -
      1;
  DTREE_CHECK(s >= 0 && s < n_);
  return s;
}

Result<BroadcastChannel::QueryOutcome> BroadcastTimeline::Simulate(
    const std::vector<ProbeTrace>& traces, double arrival,
    uint64_t loss_stream, QueryTrace* trace_out) const {
  if (!std::isfinite(arrival) || arrival < 0.0) {
    return Status::InvalidArgument("arrival must be finite and non-negative");
  }
  if (traces.size() != spans_.size()) {
    return Status::InvalidArgument("need one probe trace per epoch span");
  }
  for (size_t s = 0; s < spans_.size(); ++s) {
    const BroadcastChannel& ch = *spans_[s].channel;
    DTREE_RETURN_IF_ERROR(ValidateTrace(traces[s],
                                        std::max(ch.index_packets(), 1),
                                        ch.num_regions(),
                                        /*require_forward=*/false));
  }
  return SimulateQuery(view(), traces.data(), arrival, loss_stream,
                       /*versioned=*/true, trace_out);
}

}  // namespace dtree::bcast
