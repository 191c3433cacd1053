// Link-layer packet framing and hardened byte access shared by every air
// index (D-tree, Kirkpatrick, trapezoidal map, R*-tree) and by data
// buckets. Every function here takes and returns PacketBuffers
// (packet_buffer.h), the one container of wire bytes.
//
// A broadcast packet is `packet_capacity` payload bytes; FramePackets
// appends a little-endian u16 broadcast *epoch* (the cycle version the
// frame was materialized under) followed by a little-endian CRC-32 of
// payload + epoch (the frame check sequence), exactly as a radio FCS
// rides outside the MAC payload. VerifyFrame is the one frame check
// (length, CRC, epoch stamp); the framed readers run it the first time
// they touch a packet, so a corrupted frame surfaces as Status kDataLoss
// — the signal the client protocol uses to trigger re-tune recovery —
// rather than silently misrouting the query. Covering the epoch with the
// CRC means a client can trust the version stamp of every delivered
// frame: a frame whose epoch differs from the client's tune-in epoch is
// *valid but stale/new* (kFailedPrecondition from VerifyFrame and
// UnframePackets), which drives the version-skew rung of the degradation
// ladder instead of being mistaken for corruption. CRC-32 detects every
// burst of <= 32 bits and any 1-3 bit error at our frame sizes; the
// residual undetected-error probability (~2^-32 for random corruption)
// is treated as zero by the simulator.
//
// The shared packet-pointer wire encoding (Table 2's 32-bit pointers):
//   bit31        1 = data pointer, low 31 bits are the region (bucket) id
//   bits12..30   packet id   \  0 = node pointer into the index segment
//   bits0..11    byte offset /
// Its rules are written here once for every index family's writer and
// decoder: EncodeNodePointer range-checks both fields, CheckNodePointer
// and CheckRegion reject a pointer that leaves the stream or names no
// region, and NodeDiscovery numbers the nodes a decode reaches, breadth
// first, under a bound on how many nodes the cycle can hold. What stays
// per family is its node layout.
//
// PacketReader is the hardened read path over a PacketBuffer: every byte
// is bounds-checked against the buffer's packet size (never the
// caller-claimed capacity alone), a packet size that does not match the
// capacity surfaces as kDataLoss, and in framed mode each packet passes
// VerifyFrame on first entry. Decoders built on it return Status on
// malformed input — never CHECK-crash, read out of bounds, or loop
// forever (see DecodeBudget).

#ifndef DTREE_BROADCAST_FRAME_H_
#define DTREE_BROADCAST_FRAME_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "broadcast/packet_buffer.h"
#include "common/status.h"

namespace dtree::bcast {

/// Bytes the CRC-32 frame trailer adds to each packet.
inline constexpr size_t kFrameCrcBytes = 4;

/// Bytes the little-endian u16 broadcast-epoch stamp adds to each packet
/// (between the payload and the CRC trailer; covered by the CRC).
inline constexpr size_t kFrameEpochBytes = 2;

/// Total link-layer overhead per frame: epoch stamp + CRC trailer.
inline constexpr size_t kFrameOverheadBytes = kFrameEpochBytes + kFrameCrcBytes;

/// Framed packet size in bits for a given payload capacity — the exposure
/// of one packet read to the bit-corruption process (loss.h).
inline constexpr int FrameBits(int packet_capacity) {
  return static_cast<int>(
      8 * (static_cast<size_t>(packet_capacity) + kFrameOverheadBytes));
}

/// Packet-pointer field layout (shared by all index wire formats).
inline constexpr uint32_t kDataPtrBit = 0x80000000u;
inline constexpr int kOffsetBits = 12;
inline constexpr uint32_t kOffsetMask = (1u << kOffsetBits) - 1;
inline constexpr int kPacketBits = 19;

/// Region id stored in a data pointer to mean "outside the service area".
inline constexpr uint32_t kOutsideRegionPtr = kDataPtrBit | ~kDataPtrBit;

uint32_t EncodeDataPointer(int region);
/// The node pointer to byte `offset` of index packet `packet` (>= 0):
/// InvalidArgument when the offset does not fit the 12-bit field or the
/// packet the 19-bit one.
Result<uint32_t> EncodeNodePointer(int packet, size_t offset);
inline bool IsDataPointer(uint32_t ptr) { return (ptr & kDataPtrBit) != 0; }
inline int DataPointerRegion(uint32_t ptr) {
  return static_cast<int>(ptr & ~kDataPtrBit);
}
inline int NodePointerPacket(uint32_t ptr) {
  return static_cast<int>(ptr >> kOffsetBits);
}
inline size_t NodePointerOffset(uint32_t ptr) { return ptr & kOffsetMask; }

/// kDataLoss unless node pointer `ptr` lands inside a stream of
/// `num_packets` packets of `capacity` (>= 1) payload bytes.
Status CheckNodePointer(uint32_t ptr, size_t num_packets, int capacity);

/// kDataLoss unless a data pointer's `region` is one of `num_regions`.
Status CheckRegion(int region, int num_regions);

/// Hard budget on node/shape decodes for one query over untrusted bytes.
/// A correct descent reads far fewer nodes than this; corrupted pointers
/// that happen to form a cycle hit the budget and fail with kDataLoss
/// instead of looping forever.
inline int DecodeBudget(size_t num_packets) {
  return static_cast<int>(16 * num_packets) + 1024;
}

/// Breadth-first node discovery for a wire decode. Intern numbers each
/// node pointer the first time it is seen, and Next hands the pointers out
/// in number order, so a decode that appends one record per pointer Next
/// returns keeps record i at number i, the number its parents' links
/// carry.
class NodeDiscovery {
 public:
  /// Genuine nodes are at least `min_node_bytes` long and do not overlap,
  /// so `packets` (of `capacity` >= 1 payload bytes each) holds at most
  /// num_packets * capacity / min_node_bytes of them; 16 more are allowed.
  NodeDiscovery(const PacketBuffer& packets, int capacity,
                size_t min_node_bytes);

  /// The number of node pointer `ptr`: CheckNodePointer's kDataLoss when
  /// it leaves the stream, and kDataLoss when it is new and the cycle
  /// cannot hold another node.
  Result<uint32_t> Intern(uint32_t ptr);

  /// Sets *ptr to the next pointer in number order; false once every
  /// interned pointer has been handed out.
  bool Next(uint32_t* ptr) {
    if (next_ == ptrs_.size()) return false;
    *ptr = ptrs_[next_++];
    return true;
  }

 private:
  size_t num_packets_;
  int capacity_;
  size_t max_nodes_;
  size_t next_ = 0;
  std::vector<uint32_t> ptrs_;  ///< number -> pointer; [next_, end) pending
  std::unordered_map<uint32_t, uint32_t> number_;  ///< pointer -> number
};

/// Link-layer framing: appends the little-endian u16 `epoch` stamp and a
/// little-endian CRC-32 of payload + epoch to every packet. Framed packets
/// are `payload + kFrameOverheadBytes` bytes; the index layout itself is
/// untouched. Epoch 0 reproduces the single-version broadcast.
PacketBuffer FramePackets(const PacketBuffer& packets, uint16_t epoch = 0);

/// The one frame check: kDataLoss when the frame is shorter than its
/// epoch + CRC trailer or fails its CRC. When `expected_epoch` is >= 0, a
/// frame whose CRC passes but whose epoch stamp differs returns
/// kFailedPrecondition — the valid-but-version-skewed signal, deliberately
/// distinct from kDataLoss so the recovery ladder can take the epoch rung
/// instead of the corruption rung. The CRC is checked first, so a flipped
/// epoch bit is always corruption.
Status VerifyFrame(const uint8_t* frame, size_t size,
                   int expected_epoch = -1);

/// Epoch stamp of a framed packet. Only meaningful after VerifyFrame
/// passed; the frame must be at least kFrameOverheadBytes long (checked).
uint16_t FrameEpoch(const uint8_t* frame, size_t size);

/// Verifies (VerifyFrame, with `expected_epoch`) and strips every frame;
/// the error names the first failing packet by id.
Result<PacketBuffer> UnframePackets(const PacketBuffer& frames,
                                    int expected_epoch = -1);

/// Flips one bit (0 = LSB of the packet's byte 0) of one packet in place.
/// Test/bench helper for injecting the bit errors the corruption model
/// represents.
void FlipBit(PacketBuffer* packets, size_t packet, size_t bit);

/// Deterministic synthetic payload for one data bucket, split into
/// `ceil(data_instance_size / packet_capacity)` packets of exactly
/// `packet_capacity` bytes (zero-padded). Byte j of the instance is
/// ExpectedDataBucketByte(region, j), so a client can verify — after the
/// CRC passes — that a linearly-scanned bucket really is the one it
/// wanted.
PacketBuffer MakeDataBucketPackets(int region, size_t data_instance_size,
                                   int packet_capacity);
uint8_t ExpectedDataBucketByte(int region, size_t j);

/// Sequential reader over consecutive packets of a PacketBuffer, hardened
/// for untrusted input: every byte is bounds-checked against the buffer's
/// packet size (never the caller-claimed capacity alone), a packet size
/// other than the capacity (plus the trailer when framed) surfaces as
/// kDataLoss, and in framed mode each packet is checked by VerifyFrame
/// the first time the reader enters it. The reader checks no epoch; a
/// client that must, calls VerifyFrame or UnframePackets. The buffer must
/// outlive the reader.
class PacketReader {
 public:
  /// A non-positive `capacity` is rejected with kDataLoss on the first
  /// read: a zero-payload stream carries no index bytes, and silently
  /// walking into the frame trailer would hand the decoder epoch/CRC
  /// bytes as payload.
  PacketReader(const PacketBuffer& packets, int capacity, bool framed,
               int packet, size_t offset, std::vector<int>* read_log)
      : packets_(packets), capacity_(capacity), framed_(framed),
        packet_(packet), offset_(offset), read_log_(read_log) {}

  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadF32(float* out);

 private:
  Status ReadByte(uint8_t* out);

  /// Validates the packet the reader is about to consume: it must exist,
  /// carry exactly the advertised capacity (+ trailer when framed), and in
  /// framed mode pass VerifyFrame. Also appends it to the read log and
  /// caches its payload pointer for the per-byte fast path.
  Status EnterPacket();

  const PacketBuffer& packets_;
  int capacity_;
  bool framed_;
  int packet_;
  size_t offset_;
  std::vector<int>* read_log_;
  const uint8_t* cur_ = nullptr;  ///< payload of the entered packet
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_FRAME_H_
