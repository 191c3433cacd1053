// Flat packet storage: one contiguous byte buffer holding every packet of
// a broadcast cycle, plus a non-owning view type the hardened readers use.
//
// PacketBuffer is the one container of wire bytes: every serializer writes
// one, the framing layer (frame.h) maps one to another, and packet i
// occupies bytes [i * packet_bytes, (i+1) * packet_bytes) of a single
// allocation. All packets of a buffer have the same size, which the
// hardened reader (frame.h's PacketReader) checks against the capacity it
// was told.
// PacketSource views a PacketBuffer, or — strided — the packet bodies
// embedded in larger fixed-size records (e.g. the headered radio frames
// of dtree::core::BroadcastProgram), so a decoder reads them in place
// without materializing per-packet copies.

#ifndef DTREE_BROADCAST_PACKET_BUFFER_H_
#define DTREE_BROADCAST_PACKET_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

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

  bool operator==(const PacketBuffer&) const = default;

 private:
  size_t packet_bytes_ = 0;
  size_t num_packets_ = 0;
  std::vector<uint8_t> bytes_;
};

/// Non-owning packet view. Cheap to copy; the underlying storage must
/// outlive the view.
class PacketSource {
 public:
  PacketSource() = default;

  /// View over a PacketBuffer.
  PacketSource(const PacketBuffer& buf)  // NOLINT
      : base_(buf.data()), packet_bytes_(buf.packet_bytes()),
        stride_(buf.packet_bytes()), count_(buf.num_packets()) {}

  /// Strided view: packet i is the `packet_bytes`-byte range at
  /// `base + i * stride + body_offset`. Lets decoders read packet bodies
  /// embedded in larger fixed-size records (radio frames) in place.
  static PacketSource Strided(const uint8_t* base, size_t count,
                              size_t stride, size_t body_offset,
                              size_t packet_bytes) {
    PacketSource s;
    s.base_ = base + body_offset;
    s.packet_bytes_ = packet_bytes;
    s.stride_ = stride;
    s.count_ = count;
    return s;
  }

  size_t num_packets() const { return count_; }
  size_t packet_bytes() const { return packet_bytes_; }

  const uint8_t* data(size_t i) const {
    DTREE_DCHECK(i < count_);
    return base_ + i * stride_;
  }

 private:
  const uint8_t* base_ = nullptr;
  size_t packet_bytes_ = 0;
  size_t stride_ = 0;
  size_t count_ = 0;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_PACKET_BUFFER_H_
