// Byte-level serialization of the paged D-tree into broadcast packets, and
// a packet-side decoder that answers queries straight from the bytes —
// exactly what a mobile client would do with the frames it receives.
//
// Node wire format (little-endian; sizes per Table 2):
//   u16  bid      — node id (breadth-first position)
//   u16  header   — bit0: partition dim (0 = y-dimensional, 1 = x-dim);
//                   bit1: large (node spans > 1 packet);
//                   bits2..15: partition size in scalar coordinates
//   u32  left_ptr  \  bit31: 1 = data pointer (low bits: region id),
//   u32  right_ptr /  0 = node pointer (bits12..30: packet, bits0..11:
//                      byte offset within that packet)
//   [large nodes, when early termination is enabled:]
//   f32  RMC      — far shortcut bound (left_rmc / upper_lwc)
//   f32  LMC      — near shortcut bound (right_lmc / lower_umc)
//   per polyline: u16 point count, then count * (f32 x, f32 y); closed
//   rings repeat their first point.
//
// The decoder is hardened: counts are range-checked on the way in
// (InvalidArgument instead of silent truncation) and every read on the
// way out is bounds-checked (a truncated or malformed stream yields a
// Status, never out-of-bounds access). For transmission over a lossy
// medium the packets can additionally be framed (bcast::FramePackets);
// the decoder in framed mode runs bcast::VerifyFrame on each packet the
// first time it touches it, so corruption is *detected* (Status
// kDataLoss) rather than silently misrouting the query.

#ifndef DTREE_DTREE_SERIALIZE_H_
#define DTREE_DTREE_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "broadcast/frame.h"
#include "common/status.h"
#include "dtree/dtree.h"

namespace dtree::core {

/// One broadcast cycle's worth of index packets: `NumIndexPackets()`
/// packets of exactly `packet_capacity` bytes (zero-padded) in one
/// contiguous allocation.
Result<bcast::PacketBuffer> SerializeDTree(const DTree& tree);

/// Client-side query over raw or CRC-framed packets (`framed`: each
/// packet is FramePackets output, verified when the descent first touches
/// it, so corruption surfaces as kDataLoss — the signal the lossy-channel
/// client uses to trigger re-tune recovery). Descends from packet 0
/// offset 0, decoding nodes as it goes; returns the region id and (out
/// parameter) the ordered list of packet ids read, applying the same
/// early-termination rule a real client would. The flat-arena engine's
/// bit-identical oracle. BroadcastProgram::RunClient decodes with it the
/// segment it assembles from the bodies of the index frames it hears.
Result<int> QueryFromPackets(const bcast::PacketBuffer& packets,
                             int packet_capacity, bool framed,
                             bool early_termination, const geom::Point& p,
                             std::vector<int>* packets_read);

}  // namespace dtree::core

#endif  // DTREE_DTREE_SERIALIZE_H_
