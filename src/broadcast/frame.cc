#include "broadcast/frame.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"

namespace dtree::bcast {

namespace {

/// Names the failing packet in a VerifyFrame status, keeping its code
/// (kDataLoss or kFailedPrecondition).
Status InPacket(const Status& s, size_t packet) {
  std::string msg = "packet " + std::to_string(packet) + ": " + s.message();
  return s.code() == StatusCode::kDataLoss
             ? Status::DataLoss(std::move(msg))
             : Status::FailedPrecondition(std::move(msg));
}

}  // namespace

uint32_t EncodeDataPointer(int region) {
  DTREE_DCHECK(region >= 0);
  return kDataPtrBit | static_cast<uint32_t>(region);
}

Result<uint32_t> EncodeNodePointer(int packet, size_t offset) {
  DTREE_DCHECK(packet >= 0);
  if (offset > kOffsetMask) {
    return Status::InvalidArgument("node offset " + std::to_string(offset) +
                                   " exceeds the 12-bit pointer field");
  }
  if (packet >= (1 << kPacketBits)) {
    return Status::InvalidArgument("index packet " + std::to_string(packet) +
                                   " exceeds the 19-bit pointer field");
  }
  return (static_cast<uint32_t>(packet) << kOffsetBits) |
         static_cast<uint32_t>(offset);
}

Status CheckNodePointer(uint32_t ptr, size_t num_packets, int capacity) {
  DTREE_DCHECK(!IsDataPointer(ptr) && capacity >= 1);
  if (static_cast<size_t>(NodePointerPacket(ptr)) >= num_packets) {
    return Status::DataLoss("node pointer outside the packet stream");
  }
  if (NodePointerOffset(ptr) >= static_cast<size_t>(capacity)) {
    return Status::DataLoss("node pointer offset outside the packet");
  }
  return Status::OK();
}

Status CheckRegion(int region, int num_regions) {
  if (region < 0 || region >= num_regions) {
    return Status::DataLoss("data pointer to out-of-range region " +
                            std::to_string(region));
  }
  return Status::OK();
}

NodeDiscovery::NodeDiscovery(const PacketBuffer& packets, int capacity,
                             size_t min_node_bytes)
    : num_packets_(packets.num_packets()),
      capacity_(capacity),
      max_nodes_(num_packets_ * static_cast<size_t>(capacity) /
                     min_node_bytes +
                 16) {
  DTREE_DCHECK(capacity >= 1 && min_node_bytes >= 1);
}

Result<uint32_t> NodeDiscovery::Intern(uint32_t ptr) {
  DTREE_RETURN_IF_ERROR(CheckNodePointer(ptr, num_packets_, capacity_));
  const auto [it, inserted] =
      number_.emplace(ptr, static_cast<uint32_t>(ptrs_.size()));
  if (!inserted) return it->second;
  if (ptrs_.size() == max_nodes_) {
    number_.erase(it);
    return Status::DataLoss(
        "decoded node count exceeds what the cycle can hold");
  }
  ptrs_.push_back(ptr);
  return it->second;
}

PacketBuffer FramePackets(const PacketBuffer& packets, uint16_t epoch) {
  const size_t payload = packets.packet_bytes();
  PacketBuffer frames(packets.num_packets(), payload + kFrameOverheadBytes);
  for (size_t i = 0; i < packets.num_packets(); ++i) {
    uint8_t* frame = frames.packet(i);
    std::copy_n(packets.packet(i), payload, frame);
    frame[payload] = static_cast<uint8_t>(epoch & 0xff);
    frame[payload + 1] = static_cast<uint8_t>(epoch >> 8);
    // The CRC covers payload + epoch, so a flipped epoch bit is caught
    // exactly like a flipped payload bit.
    const uint32_t crc = Crc32(frame, payload + kFrameEpochBytes);
    for (size_t k = 0; k < kFrameCrcBytes; ++k) {
      frame[payload + kFrameEpochBytes + k] =
          static_cast<uint8_t>((crc >> (8 * k)) & 0xff);
    }
  }
  return frames;
}

Status VerifyFrame(const uint8_t* frame, size_t size, int expected_epoch) {
  if (size < kFrameOverheadBytes) {
    return Status::DataLoss("frame shorter than its epoch + CRC trailer");
  }
  const size_t covered = size - kFrameCrcBytes;
  const uint32_t trailer = static_cast<uint32_t>(frame[covered]) |
                           static_cast<uint32_t>(frame[covered + 1]) << 8 |
                           static_cast<uint32_t>(frame[covered + 2]) << 16 |
                           static_cast<uint32_t>(frame[covered + 3]) << 24;
  if (Crc32(frame, covered) != trailer) {
    return Status::DataLoss("frame failed its CRC check");
  }
  if (expected_epoch >= 0 &&
      FrameEpoch(frame, size) != static_cast<uint16_t>(expected_epoch)) {
    return Status::FailedPrecondition(
        "frame carries epoch " + std::to_string(FrameEpoch(frame, size)) +
        ", expected " + std::to_string(expected_epoch));
  }
  return Status::OK();
}

uint16_t FrameEpoch(const uint8_t* frame, size_t size) {
  DTREE_CHECK(size >= kFrameOverheadBytes);
  const size_t at = size - kFrameOverheadBytes;
  return static_cast<uint16_t>(frame[at]) |
         static_cast<uint16_t>(frame[at + 1]) << 8;
}

Result<PacketBuffer> UnframePackets(const PacketBuffer& frames,
                                    int expected_epoch) {
  const size_t size = frames.packet_bytes();
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    Status s = VerifyFrame(frames.packet(i), size, expected_epoch);
    if (!s.ok()) return InPacket(s, i);
  }
  if (frames.empty()) return PacketBuffer();
  PacketBuffer packets(frames.num_packets(), size - kFrameOverheadBytes);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    std::copy_n(frames.packet(i), packets.packet_bytes(), packets.packet(i));
  }
  return packets;
}

void FlipBit(PacketBuffer* packets, size_t packet, size_t bit) {
  DTREE_CHECK(packet < packets->num_packets() &&
              bit / 8 < packets->packet_bytes());
  packets->packet(packet)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

uint8_t ExpectedDataBucketByte(int region, size_t j) {
  // Cheap byte mixer: distinct regions get visibly distinct streams, and
  // any single-byte swap between buckets is detectable.
  uint64_t v = (static_cast<uint64_t>(region) + 1) * 0x9e3779b97f4a7c15ull +
               static_cast<uint64_t>(j) * 0xbf58476d1ce4e5b9ull;
  v ^= v >> 31;
  return static_cast<uint8_t>(v & 0xff);
}

PacketBuffer MakeDataBucketPackets(int region, size_t data_instance_size,
                                   int packet_capacity) {
  DTREE_CHECK(packet_capacity > 0);
  const size_t cap = static_cast<size_t>(packet_capacity);
  PacketBuffer packets((data_instance_size + cap - 1) / cap, cap);
  for (size_t j = 0; j < data_instance_size; ++j) {
    packets.data()[j] = ExpectedDataBucketByte(region, j);
  }
  return packets;
}

Status PacketReader::ReadU16(uint16_t* out) {
  uint8_t lo, hi;
  DTREE_RETURN_IF_ERROR(ReadByte(&lo));
  DTREE_RETURN_IF_ERROR(ReadByte(&hi));
  *out = static_cast<uint16_t>(lo) | static_cast<uint16_t>(hi) << 8;
  return Status::OK();
}

Status PacketReader::ReadU32(uint32_t* out) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    uint8_t b;
    DTREE_RETURN_IF_ERROR(ReadByte(&b));
    v |= static_cast<uint32_t>(b) << (8 * i);
  }
  *out = v;
  return Status::OK();
}

Status PacketReader::ReadF32(float* out) {
  uint32_t bits;
  DTREE_RETURN_IF_ERROR(ReadU32(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status PacketReader::ReadByte(uint8_t* out) {
  if (capacity_ <= 0) {
    // A zero-payload stream has no index bytes at all; advancing through
    // it would read the epoch/CRC trailer as payload (regression-pinned
    // in tests/failsafe_fuzz_test.cc).
    return Status::DataLoss("packet stream has zero payload capacity");
  }
  if (cur_ == nullptr) DTREE_RETURN_IF_ERROR(EnterPacket());
  if (offset_ == static_cast<size_t>(capacity_)) {
    ++packet_;
    offset_ = 0;
    DTREE_RETURN_IF_ERROR(EnterPacket());
  }
  *out = cur_[offset_];
  ++offset_;
  return Status::OK();
}

Status PacketReader::EnterPacket() {
  if (packet_ < 0 ||
      packet_ >= static_cast<int>(packets_.num_packets())) {
    return Status::OutOfRange("decoder ran off the packet stream");
  }
  const size_t pkt_size = packets_.packet_bytes();
  const uint8_t* pkt = packets_.packet(static_cast<size_t>(packet_));
  const size_t expect = static_cast<size_t>(capacity_) +
                        (framed_ ? kFrameOverheadBytes : 0);
  if (pkt_size != expect) {
    return Status::DataLoss("packet " + std::to_string(packet_) + " is " +
                            std::to_string(pkt_size) +
                            " bytes, expected " + std::to_string(expect));
  }
  if (framed_) {
    Status s = VerifyFrame(pkt, pkt_size);
    if (!s.ok()) return InPacket(s, static_cast<size_t>(packet_));
  }
  cur_ = pkt;
  if (offset_ > static_cast<size_t>(capacity_)) {
    return Status::DataLoss("read offset " + std::to_string(offset_) +
                            " outside packet " + std::to_string(packet_));
  }
  if (read_log_ != nullptr &&
      (read_log_->empty() || read_log_->back() != packet_)) {
    read_log_->push_back(packet_);
  }
  return Status::OK();
}

}  // namespace dtree::bcast
