// The R*-tree's flat probe layout and its one descent (DESIGN.md §12).
//
// An RStarArena holds the tree's nodes (leaf flag, packet, entry range),
// their entries flattened across nodes (MBR, child link or region, and
// for a leaf entry its shape's packet span and ring) and the shape rings
// as structure-of-arrays coordinates. It is filled from one of two
// sources:
//
//  * RStarTree::Build fills it, in depth-first broadcast order, from the
//    tree's exact doubles: unrounded MBRs and the regions' polygon rings.
//  * RStarArena::Build decodes a serialized cycle once — tree nodes and
//    the shape objects trailing each leaf, CRC-verified in framed mode —
//    from the promoted, outward-rounded f32 wire MBRs and promoted rings.
//    The writer's ShapeCursor is replayed here, once, not per probe.
//
// ProbeInto is one depth-first search over either: children whose MBR
// contains p, in entry order; at a leaf, every entry whose MBR contains p
// reads its shape and answers when the ring contains p, and otherwise the
// nearest tested ring answers. The packet log is the visited nodes'
// packets plus the wanted shapes' spans.
//
// Contract, pinned by tests/baseline_pin_test.cc, tests/arena_test.cc and
// tests/failsafe_fuzz_test.cc: a tree-built layout is the in-memory
// R*-tree. Outside the kMergeEps * 100 border band a decoded layout's
// region is brute-force sub::PointLocator's; within an f32 ulp of a
// vertex coordinate (~6e-5 near 1000) an outward-rounded wire MBR edge
// admits points the exact MBR excludes, so the packet log, though not
// the region, may differ there. Hostile bytes fail with a Status, never a
// crash or a hang.

#ifndef DTREE_BASELINES_RSTAR_ARENA_H_
#define DTREE_BASELINES_RSTAR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "broadcast/params.h"
#include "common/status.h"
#include "geom/point.h"

namespace dtree::baselines {

class RStarTree;

/// Wire sizes: a node packet opens with a header (leaf flag and entry
/// count) followed by its entries (f32 MBR, then a child packet or a
/// region); a shape object is a header (bid, data pointer, vertex count)
/// followed by its f32 vertices.
inline constexpr size_t kRStarEntrySize =
    4 * bcast::kCoordinateSize + bcast::kRStarPointerSize;
inline constexpr size_t kRStarNodeHeader = bcast::kBidSize;
inline constexpr size_t kRStarShapeHeader =
    bcast::kBidSize + bcast::kRStarPointerSize + 2;

/// Where a leaf's shape objects go, written once for the writer and the
/// decoder that replays it. The shapes follow the leaf from the next
/// packet on. A shape goes at the cursor when the cursor's packet is still
/// empty or the shape fits its remainder; otherwise it starts the next
/// packet. A shape at the start of a packet spans as many packets as it
/// needs.
class ShapeCursor {
 public:
  ShapeCursor(int leaf_packet, size_t capacity)
      : packet_(leaf_packet + 1), cap_(capacity) {}

  int packet() const { return packet_; }
  size_t offset() const { return offset_; }

  /// Whether `size` bytes go at the cursor.
  bool Fits(size_t size) const {
    return offset_ == 0 || size <= cap_ - offset_;
  }
  void NextPacket() {
    ++packet_;
    offset_ = 0;
  }
  /// Moves past `size` bytes placed at the cursor (which Fits them) and
  /// returns the number of packets they span.
  int Place(size_t size) {
    int num = 1;
    size_t end = offset_ + size;
    for (; end > cap_; end -= cap_) {
      ++packet_;
      ++num;
    }
    offset_ = end;
    return num;
  }

 private:
  int packet_;
  size_t offset_ = 0;
  size_t cap_;
};

class RStarArena final : public bcast::FlatProbeEngine {
 public:
  /// Decodes every node reachable from packet 0 plus every leaf's shape
  /// objects. In framed mode each packet's CRC is verified as the build
  /// first touches it; malformed counts, non-forward child pointers,
  /// mismatched shape headers, or out-of-range region labels fail with
  /// kDataLoss, so the arena is never built over unverified bytes.
  static Result<RStarArena> Build(const bcast::PacketBuffer& packets,
                                  int packet_capacity, bool framed,
                                  int num_regions);

  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;
  size_t ArenaBytes() const override;

  /// The region p descends to, with no packet accounting; -1 where
  /// ProbeInto fails, e.g. for a point in no leaf MBR.
  int Locate(const geom::Point& p) const;

  int num_nodes() const { return static_cast<int>(leaf_.size()); }

 private:
  friend class RStarTree;  // fills its layout as it builds

  RStarArena() = default;

  /// The depth-first search from the root: sets *region on success and,
  /// when `trace` is non-null, appends the packets read.
  Status Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                 int* region) const;
  /// Releases the arrays' spare capacity once the layout is filled.
  void ShrinkToFit();

  /// A decoded cycle reports a failed descent as kDataLoss, a built tree
  /// as kInternal.
  bool decoded_ = false;
  /// Work bound of a descent, charged per node and per leaf entry's
  /// placement walk: DecodeBudget(num_packets) for a decoded cycle; the
  /// node count plus every entry's walk cost for a tree, whose search
  /// visits each node and each leaf entry at most once.
  int budget_ = 0;

  // --- per-node records (index = layout node id; root = 0) --------------
  std::vector<uint8_t> leaf_;
  std::vector<int32_t> packet_;        ///< the node's packet
  std::vector<uint32_t> entry_begin_;  ///< size num_nodes + 1

  // --- per-entry records, flattened across all nodes --------------------
  std::vector<geom::BBox> ebox_;      ///< MBR (wire: promoted, rounded out)
  std::vector<uint32_t> target_;      ///< internal: child node; leaf: region
  std::vector<int32_t> shape_first_;  ///< leaf: shape span start packet
  std::vector<int32_t> shape_num_;    ///< leaf: shape span packet count
  std::vector<uint32_t> shape_offset_;  ///< leaf: byte offset in first packet
  std::vector<uint8_t> attempts_;     ///< leaf: placement-walk budget cost
  std::vector<uint32_t> ring_begin_;  ///< size num_entries + 1

  // --- shape rings, flattened -------------------------------------------
  std::vector<double> rx_, ry_;
};

/// Server-side arena for a built R*-tree: serializes and decodes back.
/// The ArenaIndex reports the tree's identity, so experiment output is
/// byte-identical with the arena enabled.
Result<bcast::ArenaIndex> BuildRStarArenaIndex(const RStarTree& tree,
                                               int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_RSTAR_ARENA_H_
