#include "broadcast/channel.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "broadcast/access.h"
#include "broadcast/versioned.h"
#include "common/check.h"

namespace dtree::bcast {

const char* GiveUpStageName(GiveUpStage stage) {
  switch (stage) {
    case GiveUpStage::kNone: return "none";
    case GiveUpStage::kProbeBudget: return "probe_budget";
    case GiveUpStage::kRetryBudget: return "retry_budget";
    case GiveUpStage::kFallbackBudget: return "fallback_budget";
    case GiveUpStage::kEpochChurn: return "epoch_churn";
  }
  return "unknown";
}

Result<BroadcastChannel> BroadcastChannel::Create(
    int index_packets, int num_regions, const ChannelOptions& options) {
  if (options.packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  if (num_regions < 1) {
    return Status::InvalidArgument("channel needs at least one data bucket");
  }
  if (index_packets < 0) {
    return Status::InvalidArgument("negative index size");
  }
  DTREE_RETURN_IF_ERROR(ValidateLossOptions(options.loss));
  // Ceiling division that cannot wrap (size + capacity - 1 would near
  // SIZE_MAX), checked before the narrowing to int.
  const size_t cap = static_cast<size_t>(options.packet_capacity);
  const size_t bucket = options.data_instance_size / cap +
                        (options.data_instance_size % cap != 0 ? 1 : 0);
  if (bucket < 1 || bucket > static_cast<size_t>(INT_MAX)) {
    return Status::InvalidArgument(
        "data instance size leaves no data packets or overflows a bucket");
  }

  BroadcastChannel ch;
  ch.loss_ = options.loss;
  ch.packet_capacity_ = options.packet_capacity;
  ch.index_packets_ = index_packets;
  ch.num_regions_ = num_regions;
  ch.bucket_packets_ = static_cast<int>(bucket);
  ch.data_packets_ =
      static_cast<int64_t>(num_regions) * ch.bucket_packets_;

  int m = options.m;
  if (m == 0) {
    // Optimal index replication from "Data on air": m* = sqrt(Data/Index).
    if (index_packets == 0) {
      m = 1;
    } else {
      m = static_cast<int>(std::lround(std::sqrt(
          static_cast<double>(ch.data_packets_) / index_packets)));
    }
  }
  m = std::clamp(m, 1, num_regions);
  ch.m_ = m;

  // Split data buckets into m nearly equal contiguous chunks; chunk j
  // holds buckets [first(j), first(j + 1)) right after index segment j.
  const auto first = [&](int j) {
    return static_cast<int>((static_cast<int64_t>(num_regions) * j) / m);
  };
  ch.segment_start_.resize(m);
  ch.bucket_start_.resize(num_regions);
  for (int j = 0; j < m; ++j) {
    ch.segment_start_[j] =
        static_cast<int64_t>(j) * index_packets +
        static_cast<int64_t>(first(j)) * ch.bucket_packets_;
    for (int r = first(j); r < first(j + 1); ++r) {
      ch.bucket_start_[r] =
          ch.segment_start_[j] + index_packets +
          static_cast<int64_t>(r - first(j)) * ch.bucket_packets_;
    }
  }
  ch.cycle_packets_ =
      static_cast<int64_t>(m) * index_packets + ch.data_packets_;
  return ch;
}

int64_t BroadcastChannel::IndexSegmentStart(int j) const {
  DTREE_CHECK(j >= 0 && j < m_);
  return segment_start_[j];
}

int64_t BroadcastChannel::BucketStart(int r) const {
  DTREE_CHECK(r >= 0 && r < num_regions_);
  return bucket_start_[r];
}

Result<BroadcastChannel::QueryOutcome> BroadcastChannel::Simulate(
    const ProbeTrace& trace, double arrival, uint64_t loss_stream,
    QueryTrace* trace_out) const {
  // NaN compares false against both bounds, so the finiteness check is
  // load-bearing: without it a NaN arrival would flow into floor() and
  // int64 casts (undefined behavior), not an error.
  if (!std::isfinite(arrival) || arrival < 0.0 ||
      arrival >= static_cast<double>(cycle_packets_)) {
    return Status::InvalidArgument("arrival outside the broadcast cycle");
  }
  DTREE_RETURN_IF_ERROR(ValidateTrace(trace, std::max(index_packets_, 1),
                                      num_regions_,
                                      /*require_forward=*/false));
  const EpochSpan span{this, /*epoch=*/0, /*cycles=*/1};
  return SimulateQuery(TimelineView::Single(&span), &trace, arrival,
                       loss_stream, /*versioned=*/false, trace_out);
}

Result<BroadcastChannel::QueryOutcome> BroadcastChannel::SimulateNoIndex(
    int region, double arrival, uint64_t loss_stream) const {
  return SimulateNoIndexQuery(*this, region, arrival, loss_stream);
}

}  // namespace dtree::bcast
