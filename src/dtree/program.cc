#include "dtree/program.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "broadcast/access.h"
#include "common/check.h"
#include "dtree/serialize.h"

namespace dtree::core {

namespace {

void PutU32(uint8_t* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
}

uint32_t GetU32(const uint8_t* buf) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(buf[i]) << (8 * i);
  }
  return v;
}

}  // namespace

Result<BroadcastProgram> BroadcastProgram::Materialize(
    const DTree& tree, const bcast::BroadcastChannel& channel,
    uint16_t epoch) {
  if (channel.index_packets() != tree.NumIndexPackets()) {
    return Status::InvalidArgument(
        "channel layout does not match the tree's packet count");
  }
  Result<bcast::PacketBuffer> index_r = SerializeDTree(tree);
  if (!index_r.ok()) return index_r.status();

  BroadcastProgram prog;
  prog.capacity_ = tree.PacketCapacity();
  prog.epoch_ = epoch;
  prog.cycle_ = channel.cycle_packets();
  prog.bucket_packets_ = channel.bucket_packets();
  prog.early_termination_ = tree.options().early_termination;
  prog.index_ = std::move(index_r).value();
  for (int j = 0; j < channel.m(); ++j) {
    prog.segment_starts_.push_back(channel.IndexSegmentStart(j));
  }
  for (int r = 0; r < channel.num_regions(); ++r) {
    prog.bucket_starts_.push_back(channel.BucketStart(r));
  }
  return prog;
}

std::vector<uint8_t> BroadcastProgram::frame(int64_t i) const {
  DTREE_CHECK(i >= 0 && i < cycle_);
  std::vector<uint8_t> f(kHeaderSize + static_cast<size_t>(capacity_));
  // Segment 0 starts at frame 0, so the last segment start at or before i
  // exists; i is that segment's index packet k while k is inside it.
  const auto next = std::upper_bound(segment_starts_.begin(),
                                     segment_starts_.end(), i);
  const int64_t k = i - *std::prev(next);
  if (k < static_cast<int64_t>(index_.num_packets())) {
    f[0] = kIndexFrame;
    std::copy_n(index_.packet(static_cast<size_t>(k)), capacity_,
                f.data() + kHeaderSize);
  } else {
    // A data frame of the last bucket starting at or before i. Each 1 KB
    // instance is stamped with its region id every 4 bytes so the client
    // can verify what it downloaded.
    const auto region = static_cast<uint32_t>(
        std::upper_bound(bucket_starts_.begin(), bucket_starts_.end(), i) -
        bucket_starts_.begin() - 1);
    f[0] = kDataFrame;
    for (size_t off = kHeaderSize; off + 4 <= f.size(); off += 4) {
      PutU32(f.data() + off, region);
    }
  }
  // Next-index pointer: frames until the next segment start strictly
  // after i (wrapping into the next cycle), then the epoch stamp.
  const int64_t target =
      next != segment_starts_.end() ? *next : cycle_ + segment_starts_[0];
  PutU32(f.data() + 1, static_cast<uint32_t>(target - i));
  f[5] = static_cast<uint8_t>(epoch_ & 0xff);
  f[6] = static_cast<uint8_t>(epoch_ >> 8);
  return f;
}

Result<BroadcastProgram::SessionResult> BroadcastProgram::RunClient(
    const geom::Point& p, double arrival) const {
  const int64_t cycle = num_frames();
  // NaN passes both range comparisons; only the finiteness check keeps it
  // out of the integer conversion below.
  if (!std::isfinite(arrival) || arrival < 0.0 ||
      arrival >= static_cast<double>(cycle)) {
    return Status::InvalidArgument("arrival outside the broadcast cycle");
  }
  SessionResult out;

  // --- Initial probe: the first packet start after the arrival, exactly
  // as the access protocol hears it.
  const int64_t probe = bcast::FirstHeardPacket(arrival);
  const std::vector<uint8_t> head = frame(probe % cycle);
  if ((head[5] | (head[6] << 8)) != epoch_) {
    return Status::FailedPrecondition("frame epoch stamp mismatch");
  }
  out.tuning_probe = 1;
  const int64_t seg_start = probe + GetU32(head.data() + 1);
  int64_t pos = probe + 1;
  DTREE_CHECK(seg_start >= pos);

  // --- Index search: decode the segment assembled from the bodies of the
  // index frames heard from its start. A one-region program broadcasts an
  // empty segment: nothing is decoded, region 0 is the answer, and the
  // bucket is looked for from the segment start, as the access protocol
  // does.
  int region = 0;
  if (index_.num_packets() == 0) {
    pos = seg_start;
  } else {
    const int64_t seg_in_cycle = seg_start % cycle;
    bcast::PacketBuffer segment(index_.num_packets(),
                                static_cast<size_t>(capacity_));
    for (size_t k = 0; k < segment.num_packets(); ++k) {
      const std::vector<uint8_t> f =
          frame(seg_in_cycle + static_cast<int64_t>(k));
      if (f[0] != kIndexFrame) {
        return Status::Internal("expected an index frame inside the segment");
      }
      std::copy_n(f.data() + kHeaderSize, capacity_, segment.packet(k));
    }
    std::vector<int> read;
    Result<int> region_r =
        QueryFromPackets(segment, capacity_, /*framed=*/false,
                         early_termination_, p, &read);
    if (!region_r.ok()) return region_r.status();
    region = region_r.value();
    if (region < 0 || region >= static_cast<int>(bucket_starts_.size())) {
      return Status::Internal("index resolved to an invalid region");
    }
    for (int id : read) {
      const int64_t at = seg_start + id;
      DTREE_CHECK(at >= pos - 1);
      pos = std::max(pos, at + 1);
      ++out.tuning_index;
    }
  }

  // --- Data retrieval: wait for the bucket, verify every frame's stamp.
  const int64_t bucket_in_cycle = bucket_starts_[region];
  int64_t data_at = (pos / cycle) * cycle + bucket_in_cycle;
  if (data_at < pos) data_at += cycle;
  for (int k = 0; k < bucket_packets_; ++k) {
    const std::vector<uint8_t> f = frame((data_at + k) % cycle);
    if (f[0] != kDataFrame) {
      return Status::Internal("expected a data frame in the bucket");
    }
    for (size_t off = kHeaderSize; off + 4 <= f.size(); off += 4) {
      if (GetU32(f.data() + off) != static_cast<uint32_t>(region)) {
        return Status::Internal("data payload stamp mismatch");
      }
    }
    ++out.tuning_data;
  }
  out.region = region;
  out.latency = static_cast<double>(data_at + bucket_packets_) - arrival;
  return out;
}

}  // namespace dtree::core
