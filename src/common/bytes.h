// Fixed-width little-endian serialization helpers.
//
// The air-index packet formats (Table 2 of the paper) use 2-byte ids,
// 2-byte headers, 2/4-byte pointers, and 4-byte coordinates. ByteWriter
// provides the corresponding primitives over a growable buffer; the
// hardened read side is bcast::PacketReader (broadcast/frame.h).

#ifndef DTREE_COMMON_BYTES_H_
#define DTREE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

namespace dtree {

/// Appends fixed-width little-endian fields to an internal byte vector.
class ByteWriter {
 public:
  /// Pre-sizes the buffer when the final byte count is known (node
  /// serializers know it exactly from their size accounting), avoiding the
  /// grow-and-copy churn that dominates large builds.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void PutU16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v & 0xff));
    buf_.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  }

  /// Range-checked narrowing write: InvalidArgument when v does not fit a
  /// u16 (nothing is written). Serializers use this for counts that come
  /// from in-memory structures whose size is not bounded by the wire
  /// format — a bare static_cast would silently truncate and round-trip
  /// to a different structure.
  Status PutU16Checked(uint64_t v, const char* what) {
    if (v > 0xffffu) {
      return Status::InvalidArgument(std::string(what) + " " +
                                     std::to_string(v) +
                                     " exceeds the u16 wire field");
    }
    PutU16(static_cast<uint16_t>(v));
    return Status::OK();
  }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
    }
  }

  /// Coordinates are serialized as IEEE-754 binary32 (4 bytes, Table 2).
  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

}  // namespace dtree

#endif  // DTREE_COMMON_BYTES_H_
