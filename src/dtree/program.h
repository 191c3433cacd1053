// Byte-level broadcast program: one full (1, m) cycle as radio frames —
// the "air storage" of Imielinski et al. made concrete.
//
// Frame layout (one frame per packet slot of the cycle):
//   u8   type        0 = index, 1 = data
//   u32  next_index  frames from this one to the start of the next index
//                    segment (the pointer every segment carries, §2)
//   u16  epoch       broadcast epoch this cycle was built for — the
//                    version stamp a client checks against its tune-in
//                    epoch (broadcast/versioned.h)
//   u8[capacity]     body: a paged index packet (from SerializeDTree) or a
//                    slice of a 1 KB data instance, stamped with its
//                    region id every 4 bytes
//
// The 7-byte frame header models link-layer overhead and deliberately sits
// outside the packet capacity, so the index layouts paged for `capacity`
// bytes are broadcast unchanged (Table 2 accounts payload bytes only).
//
// The cycle is never stored. Its m index segments are copies of one
// serialized D-tree, and every other byte follows from the channel layout
// and the epoch, so a program keeps one index segment, the epoch and the
// layout's segment and bucket starts, and frame(i) computes slot i's
// bytes from them on demand.
//
// RunClient executes the full access protocol against the frames —
// initial probe, byte-level index decoding, doze, data retrieval with
// payload verification — and must agree with the analytic channel
// simulator packet for packet (asserted in tests).

#ifndef DTREE_DTREE_PROGRAM_H_
#define DTREE_DTREE_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/packet_buffer.h"
#include "common/status.h"
#include "dtree/dtree.h"

namespace dtree::core {

class BroadcastProgram {
 public:
  /// Builds the program for a built D-tree over `channel`'s layout,
  /// stamping every frame header with `epoch`. The channel must have been
  /// created for this tree's packet count and capacity.
  static Result<BroadcastProgram> Materialize(
      const DTree& tree, const bcast::BroadcastChannel& channel,
      uint16_t epoch = 0);

  int capacity() const { return capacity_; }
  uint16_t epoch() const { return epoch_; }
  int64_t num_frames() const { return cycle_; }
  /// Radio frame i of the cycle (header + body), computed from the stored
  /// index segment and layout tables. CHECK-fails outside
  /// [0, num_frames()).
  std::vector<uint8_t> frame(int64_t i) const;

  /// Frame-header constants (u8 type + u32 next_index + u16 epoch).
  static constexpr size_t kHeaderSize = 7;
  static constexpr uint8_t kIndexFrame = 0;
  static constexpr uint8_t kDataFrame = 1;

  struct SessionResult {
    int region = -1;
    double latency = 0.0;   ///< frames, query issue -> data complete
    int tuning_probe = 0;
    int tuning_index = 0;
    int tuning_data = 0;
    int tuning_total() const {
      return tuning_probe + tuning_index + tuning_data;
    }
  };

  /// Runs a complete client session from the bytes: tunes in at `arrival`
  /// (continuous, within one cycle; anything else, NaN included, is
  /// InvalidArgument), reads the probe frame's next-index pointer, decodes
  /// the D-tree from index frames, waits for the data bucket, and verifies
  /// the payload stamp. Fails on any byte-level inconsistency.
  Result<SessionResult> RunClient(const geom::Point& p,
                                  double arrival) const;

 private:
  BroadcastProgram() = default;

  int capacity_ = 0;
  uint16_t epoch_ = 0;
  int64_t cycle_ = 0;
  int bucket_packets_ = 0;
  bool early_termination_ = true;
  bcast::PacketBuffer index_;  ///< SerializeDTree output: one segment
  std::vector<int64_t> segment_starts_;  ///< ascending, the first is 0
  std::vector<int64_t> bucket_starts_;   ///< region -> first data frame;
                                         ///< ascends with the region id
};

}  // namespace dtree::core

#endif  // DTREE_DTREE_PROGRAM_H_
