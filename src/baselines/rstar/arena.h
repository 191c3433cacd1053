// Flat-arena probe engine for the R*-tree baseline (DESIGN.md §12), and
// the family's one client-side reader of RStarTree's wire bytes: the
// whole broadcast cycle — tree nodes and the shape objects trailing each
// leaf — decoded once (CRC-verified in framed mode) into contiguous
// entry/ring arrays, so probes run MBR tests over typed memory and ring
// tests over SoA coordinate arrays instead of re-walking the shape
// placement cursor per query.
//
// ProbeInto runs RStarTree::ProbeInto's depth-first search over the
// promoted, outward-rounded f32 wire MBRs and rings, with the same
// nearest-boundary fallback and the same packet accounting: the visited
// nodes' packets plus the wanted shapes' spans.
//
// Contract, pinned by tests/arena_test.cc and tests/failsafe_fuzz_test.cc:
// outside the kMergeEps * 100 border band the region is brute-force
// sub::PointLocator's; outcomes on fixed inputs match golden digests; and
// hostile bytes fail with a Status, never a crash or a hang. Within an
// f32 ulp of a vertex coordinate (~6e-5 near 1000) an outward-rounded
// wire MBR edge admits points that RStarTree::ProbeInto's double MBR
// excludes, so the packet log, though not the region, may differ from
// the in-memory one there.

#ifndef DTREE_BASELINES_RSTAR_ARENA_H_
#define DTREE_BASELINES_RSTAR_ARENA_H_

#include <cstdint>
#include <vector>

#include "baselines/rstar/rstar.h"
#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "geom/point.h"

namespace dtree::baselines {

class RStarArena final : public bcast::FlatProbeEngine {
 public:
  /// Decodes every node reachable from packet 0 plus every leaf's shape
  /// objects (the placement-cursor walk is query-independent, so it runs
  /// once here instead of once per probe). In framed mode each packet's
  /// CRC is verified as the build first touches it; malformed counts,
  /// non-forward child pointers, mismatched shape headers, or
  /// out-of-range region labels fail with kDataLoss, so the arena is
  /// never built over unverified bytes.
  static Result<RStarArena> Build(const bcast::PacketBuffer& packets,
                                  int packet_capacity, bool framed,
                                  int num_regions);

  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;
  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(leaf_.size()); }

 private:
  RStarArena() = default;

  int budget_ = 0;  ///< DecodeBudget(num_packets): caps a probe's work

  // --- per-node records (index = arena node id; root = 0) ---------------
  std::vector<uint8_t> leaf_;
  std::vector<int32_t> packet_;       ///< the node's wire packet
  std::vector<uint32_t> entry_begin_; ///< size num_nodes + 1

  // --- per-entry records, flattened across all nodes --------------------
  std::vector<geom::BBox> ebox_;      ///< promoted outward-rounded wire MBR
  std::vector<uint32_t> child_;       ///< internal: arena node id
  std::vector<int32_t> region_;       ///< leaf: the shape's region id
  std::vector<int32_t> shape_first_;  ///< leaf: shape span start packet
  std::vector<int32_t> shape_num_;    ///< leaf: shape span packet count
  std::vector<uint8_t> attempts_;     ///< leaf: placement-walk budget cost
  std::vector<uint32_t> ring_begin_;  ///< size num_entries + 1

  // --- shape rings (promoted wire f32), flattened -----------------------
  std::vector<double> rx_, ry_;
};

/// Server-side arena for a built R*-tree: serializes and decodes back.
/// The ArenaIndex reports the tree's identity, so experiment output is
/// byte-identical with the arena enabled.
Result<bcast::ArenaIndex> BuildRStarArenaIndex(const RStarTree& tree,
                                               int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_RSTAR_ARENA_H_
