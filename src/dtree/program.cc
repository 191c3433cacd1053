#include "dtree/program.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
  const bcast::PacketBuffer& index_packets = index_r.value();

  BroadcastProgram prog;
  prog.capacity_ = tree.PacketCapacity();
  prog.epoch_ = epoch;
  prog.m_ = channel.m();
  prog.index_packets_ = channel.index_packets();
  prog.bucket_packets_ = channel.bucket_packets();
  prog.num_regions_ = channel.num_regions();
  prog.early_termination_ = tree.options().early_termination;

  const size_t cap = static_cast<size_t>(prog.capacity_);
  const int64_t cycle = channel.cycle_packets();
  prog.frames_ =
      bcast::PacketBuffer(static_cast<size_t>(cycle), kHeaderSize + cap);
  prog.bucket_starts_.assign(prog.num_regions_, -1);

  for (int j = 0; j < prog.m_; ++j) {
    prog.segment_starts_.push_back(channel.IndexSegmentStart(j));
  }

  // Lay down index segments.
  for (int j = 0; j < prog.m_; ++j) {
    const int64_t base = channel.IndexSegmentStart(j);
    for (int k = 0; k < prog.index_packets_; ++k) {
      uint8_t* f = prog.frames_.packet(static_cast<size_t>(base + k));
      f[0] = kIndexFrame;
      std::memcpy(f + kHeaderSize,
                  index_packets.packet(static_cast<size_t>(k)), cap);
    }
  }
  // Lay down data buckets: each 1 KB instance is stamped with its region
  // id every 4 bytes so the client can verify what it downloaded.
  for (int r = 0; r < prog.num_regions_; ++r) {
    const int64_t base = channel.BucketStart(r);
    prog.bucket_starts_[r] = base;
    for (int k = 0; k < prog.bucket_packets_; ++k) {
      uint8_t* f = prog.frames_.packet(static_cast<size_t>(base + k));
      f[0] = kDataFrame;
      for (size_t off = kHeaderSize; off + 4 <= kHeaderSize + cap; off += 4) {
        PutU32(f + off, static_cast<uint32_t>(r));
      }
    }
  }
  // Next-index pointers and the epoch stamp: for every frame, frames until
  // the next segment start strictly after it (wrapping into the next
  // cycle), plus the cycle's broadcast epoch.
  for (int64_t i = 0; i < cycle; ++i) {
    int64_t next = -1;
    for (int64_t s : prog.segment_starts_) {
      if (s > i) {
        next = s;
        break;
      }
    }
    if (next < 0) next = cycle + prog.segment_starts_[0];
    uint8_t* f = prog.frames_.packet(static_cast<size_t>(i));
    PutU32(f + 1, static_cast<uint32_t>(next - i));
    f[5] = static_cast<uint8_t>(epoch & 0xff);
    f[6] = static_cast<uint8_t>(epoch >> 8);
  }
  return prog;
}

Status BroadcastProgram::ParseHeader(int64_t frame, uint8_t* type,
                                     uint32_t* next_index) const {
  if (frame < 0 || frame >= num_frames()) {
    return Status::OutOfRange("frame index outside the cycle");
  }
  const uint8_t* f = frames_.packet(static_cast<size_t>(frame));
  *type = f[0];
  *next_index = GetU32(f + 1);
  const uint16_t stamp =
      static_cast<uint16_t>(f[5] | (static_cast<uint16_t>(f[6]) << 8));
  if (stamp != epoch_) {
    return Status::FailedPrecondition("frame epoch stamp mismatch");
  }
  return Status::OK();
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
  uint8_t type;
  uint32_t delta;
  DTREE_RETURN_IF_ERROR(ParseHeader(probe % cycle, &type, &delta));
  out.tuning_probe = 1;
  const int64_t seg_start = probe + delta;
  int64_t pos = probe + 1;
  DTREE_CHECK(seg_start >= pos);

  // --- Index search from the raw frames of that segment, read in place:
  // a strided view exposes each frame's body without materializing
  // per-packet copies.
  const int64_t seg_in_cycle = seg_start % cycle;
  const size_t cap = static_cast<size_t>(capacity_);
  for (int k = 0; k < index_packets_; ++k) {
    if (frames_.packet(static_cast<size_t>(seg_in_cycle + k))[0] !=
        kIndexFrame) {
      return Status::Internal("expected an index frame inside the segment");
    }
  }
  const bcast::PacketSource bodies = bcast::PacketSource::Strided(
      frames_.packet(static_cast<size_t>(seg_in_cycle)),
      static_cast<size_t>(index_packets_), frames_.packet_bytes(),
      kHeaderSize, cap);
  thread_local std::vector<int> read;
  read.clear();
  Result<int> region_r =
      QueryFromPackets(bodies, capacity_, /*framed=*/false,
                       early_termination_, p, &read);
  if (!region_r.ok()) return region_r.status();
  const int region = region_r.value();
  if (region < 0 || region >= num_regions_) {
    return Status::Internal("index resolved to an invalid region");
  }
  for (int id : read) {
    const int64_t at = seg_start + id;
    DTREE_CHECK(at >= pos - 1);
    pos = std::max(pos, at + 1);
    ++out.tuning_index;
  }

  // --- Data retrieval: wait for the bucket, verify every frame's stamp.
  const int64_t bucket_in_cycle = bucket_starts_[region];
  int64_t data_at = (pos / cycle) * cycle + bucket_in_cycle;
  if (data_at < pos) data_at += cycle;
  for (int k = 0; k < bucket_packets_; ++k) {
    const uint8_t* f =
        frames_.packet(static_cast<size_t>((data_at + k) % cycle));
    if (f[0] != kDataFrame) {
      return Status::Internal("expected a data frame in the bucket");
    }
    for (size_t off = kHeaderSize; off + 4 <= kHeaderSize + cap; off += 4) {
      if (GetU32(f + off) != static_cast<uint32_t>(region)) {
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
