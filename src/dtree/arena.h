// Flat-arena probe engine for the D-tree (DESIGN.md §12).
//
// DTreeArena decodes a serialized cycle ONCE — in framed mode every
// packet's CRC is verified during the build, so the arena is only ever
// constructed from verified frames — into a structure-of-arrays image:
// node records in contiguous typed arrays, child links as 32-bit arena
// indices, and partition segments as four contiguous endpoint arrays so
// the per-query ray-crossing parity runs as a branch-light loop over
// doubles instead of re-parsing wire bytes.
//
// Bit-identity contract: ProbeInto replicates the packet decoder's exact
// arithmetic — the same f32→double promotions (exact), the same §4.4
// early-termination comparisons in the same order, the same
// division-based ray-crossing intercept, the same reconstructed-bound
// rule — and the same packet accounting the wire read-log produces, so it
// is bit-identical to QueryFromPackets everywhere. It matches the
// in-memory DTree::ProbeInto only outside the geom::kMergeEps * 100 band
// around region borders: the wire stores f32 coordinates, so a point
// closer to a border than their rounding may descend the other way.
// tests/arena_test pins both halves.

#ifndef DTREE_DTREE_ARENA_H_
#define DTREE_DTREE_ARENA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "dtree/dtree.h"

namespace dtree::core {

class DTreeArena final : public bcast::FlatProbeEngine {
 public:
  /// (packet << kOffsetBits | offset) -> origin annotation, used by the
  /// server-side build to attribute packet reads to tree nodes exactly as
  /// DTree::ProbeInto does. Client-side builds have no such map and emit
  /// traces with empty origins.
  using OriginMap = std::unordered_map<uint32_t, bcast::ProbePacketOrigin>;

  /// Decodes every node reachable from (packet 0, offset 0) into the
  /// arena. In framed mode each packet's CRC is verified as the build
  /// first touches it, so corruption surfaces as kDataLoss here and the
  /// arena is never built over unverified bytes. Malformed input (bad
  /// pointers, overlapping nodes run amok) also fails with kDataLoss.
  static Result<DTreeArena> Build(const bcast::PacketBuffer& packets,
                                  int packet_capacity, bool framed,
                                  bool early_termination, int num_regions,
                                  const OriginMap* origins = nullptr);

  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;
  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(left_.size()); }

 private:
  DTreeArena() = default;

  bool has_origins_ = false;
  int num_regions_ = 0;
  int budget_ = 0;  ///< DecodeBudget(num_packets), as the wire decoder uses

  // --- per-node records (structure of arrays, index = arena node id) ----
  std::vector<uint8_t> x_dim_;        ///< 1 = kXDim partition
  std::vector<uint8_t> shortcut_ok_;  ///< explicit bounds + early term.
  std::vector<double> lmc_, rmc_;     ///< promoted f32 shortcut bounds
  std::vector<double> near_b_, far_b_;  ///< full-test (Algorithm 2) bounds
  std::vector<uint32_t> left_, right_;  ///< kDataPtrBit kept; else index
  std::vector<int32_t> first_packet_;
  std::vector<int32_t> full_last_;    ///< last packet of a full node read
  std::vector<int32_t> origin_node_, origin_depth_;

  // --- partition segments, flattened across all nodes ------------------
  std::vector<uint32_t> seg_begin_;  ///< size num_nodes + 1
  std::vector<double> ax_, ay_, bx_, by_;
};

/// Server-side arena for a built D-tree: serializes the tree and
/// decodes the bytes back, annotating nodes with origins so probe traces
/// — region, packets, AND origins — equal tree.Probe's for every point
/// outside the kMergeEps * 100 border band (and the wire decoder's
/// everywhere). The returned ArenaIndex reports the tree's own
/// name/packet/byte identity.
Result<bcast::ArenaIndex> BuildDTreeArenaIndex(const DTree& tree);

}  // namespace dtree::core

#endif  // DTREE_DTREE_ARENA_H_
