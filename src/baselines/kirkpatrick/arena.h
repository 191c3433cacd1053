// Flat-arena probe engine for the Kirkpatrick triangulation baseline
// (DESIGN.md §12), and the family's one client-side reader of
// TrianTree's wire bytes: every reachable node decoded once —
// CRC-verified in framed mode — into contiguous triangle / child-pointer
// arrays, so the per-level candidate scan runs over typed memory instead
// of re-parsing wire bytes. ProbeInto runs TrianTree::ProbeInto's
// Contains-then-nearest candidate scan over the promoted-f32 triangles
// (after EnsureCCW) and logs each candidate's full node span,
// deduplicated when consecutive, as TrianTree::ProbeInto does.
//
// Contract, pinned by tests/arena_test.cc and tests/failsafe_fuzz_test.cc:
// outside the kMergeEps * 100 border band the region is brute-force
// sub::PointLocator's (NotFound for a gap triangle outside the service
// area); outcomes on fixed inputs match golden digests; and hostile bytes
// fail with a Status, never a crash or a hang.

#ifndef DTREE_BASELINES_KIRKPATRICK_ARENA_H_
#define DTREE_BASELINES_KIRKPATRICK_ARENA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "geom/triangle.h"

namespace dtree::baselines {

class TrianTreeArena final : public bcast::FlatProbeEngine {
 public:
  /// Decodes every node reachable from the root locations (the trusted
  /// metadata a client holds; see TrianTree::RootLocations). In framed
  /// mode each packet's CRC is verified as the build first touches it;
  /// malformed pointers, non-data leaf pointers, or out-of-range region
  /// labels fail with kDataLoss, so the arena is never built over
  /// unverified bytes.
  static Result<TrianTreeArena> Build(
      const bcast::PacketBuffer& packets, int packet_capacity, bool framed,
      const std::vector<std::pair<int, size_t>>& roots, int num_regions);

  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;
  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(count_.size()); }

 private:
  TrianTreeArena() = default;

  int budget_ = 0;  ///< DecodeBudget(num_packets): caps a probe's decodes

  std::vector<uint32_t> roots_;  ///< arena indices of the root candidates

  // --- per-node records (index = arena node id) -------------------------
  std::vector<geom::Triangle> tri_;  ///< promoted f32 verts, post-EnsureCCW
  std::vector<int32_t> count_;       ///< child count; 0 = base triangle
  std::vector<uint32_t> data_ptr_;   ///< leaves: wire data pointer verbatim
  std::vector<int32_t> first_packet_, last_packet_;  ///< full node span

  // --- children, flattened across all internal nodes --------------------
  std::vector<uint32_t> child_begin_;  ///< size num_nodes + 1
  std::vector<uint32_t> child_;        ///< arena indices

  friend class TrianTreeArenaTestPeer;
};

/// Server-side arena for a built trian-tree: serializes and decodes back
/// using the tree's own RootLocations(). The ArenaIndex reports the
/// tree's identity, so experiment output is byte-identical with the
/// arena enabled.
Result<bcast::ArenaIndex> BuildTrianTreeArenaIndex(const TrianTree& tree,
                                                   int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_KIRKPATRICK_ARENA_H_
