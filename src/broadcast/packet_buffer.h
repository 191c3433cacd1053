// Flat packet storage: every packet of a serialized index, a framed
// stream or a data bucket in one contiguous byte buffer.
//
// PacketBuffer is the one container of wire bytes: every serializer writes
// one, node by node through WriteNode, the framing layer (frame.h) maps
// one to another, and packet i occupies bytes [i * packet_bytes,
// (i+1) * packet_bytes) of a single allocation. All packets of a buffer
// have the same size, which the hardened reader (frame.h's PacketReader)
// checks against the capacity it was told.

#ifndef DTREE_BROADCAST_PACKET_BUFFER_H_
#define DTREE_BROADCAST_PACKET_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace dtree::bcast {

/// Owning flat packet store: `num_packets` packets of exactly
/// `packet_bytes` bytes each, contiguous and zero-initialized.
class PacketBuffer {
 public:
  PacketBuffer() = default;
  PacketBuffer(size_t num_packets, size_t packet_bytes)
      : packet_bytes_(packet_bytes), num_packets_(num_packets),
        bytes_(num_packets * packet_bytes, 0) {}

  size_t num_packets() const { return num_packets_; }
  size_t packet_bytes() const { return packet_bytes_; }
  size_t size_bytes() const { return bytes_.size(); }
  bool empty() const { return num_packets_ == 0; }

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* packet(size_t i) const {
    DTREE_DCHECK(i < num_packets_);
    return bytes_.data() + i * packet_bytes_;
  }
  uint8_t* packet(size_t i) {
    DTREE_DCHECK(i < num_packets_);
    return bytes_.data() + i * packet_bytes_;
  }

  /// Writes `n` bytes starting at (packet, offset), spilling across packet
  /// boundaries (packets are contiguous, so the spill is one straight
  /// copy). The target range is trusted (serialization-side); overruns
  /// are CHECK-failures.
  void Write(size_t packet, size_t offset, const uint8_t* src, size_t n);

  /// Writes one serialized node at (packet, offset) as Write does, after
  /// checking it against the size the paging `accounted` for it: kInternal,
  /// "serialized size X != accounted size Y", when they differ.
  Status WriteNode(size_t packet, size_t offset,
                   std::span<const uint8_t> bytes, size_t accounted);

  bool operator==(const PacketBuffer&) const = default;

 private:
  size_t packet_bytes_ = 0;
  size_t num_packets_ = 0;
  std::vector<uint8_t> bytes_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_PACKET_BUFFER_H_
