#include "broadcast/packet_buffer.h"

#include <algorithm>
#include <string>

namespace dtree::bcast {

void PacketBuffer::Write(size_t packet, size_t offset, const uint8_t* src,
                         size_t n) {
  DTREE_CHECK(packet < num_packets_ && offset <= packet_bytes_);
  const size_t at = packet * packet_bytes_ + offset;
  DTREE_CHECK(at + n <= bytes_.size());
  std::copy_n(src, n, bytes_.data() + at);
}

Status PacketBuffer::WriteNode(size_t packet, size_t offset,
                               std::span<const uint8_t> bytes,
                               size_t accounted) {
  if (bytes.size() != accounted) {
    return Status::Internal("serialized size " +
                            std::to_string(bytes.size()) +
                            " != accounted size " + std::to_string(accounted));
  }
  Write(packet, offset, bytes.data(), bytes.size());
  return Status::OK();
}

}  // namespace dtree::bcast
