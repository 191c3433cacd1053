// The trian-tree's flat probe layout and its one descent (DESIGN.md §12).
//
// A TrianTreeArena holds the Kirkpatrick hierarchy as one array of
// fixed-size node records (triangle, child range, the data pointer of a
// base triangle, the node's packet span and byte offset), one flattened
// child-link array and the list of root candidates. It is filled from
// one of two sources:
//
//  * TrianTree::Build fills it, in broadcast order, from the hierarchy's
//    exact doubles.
//  * TrianTreeArena::Build decodes a serialized cycle once — CRC-verified
//    in framed mode — from promoted f32s, each triangle made CCW again
//    (f32 rounding can flip a sliver).
//
// ProbeInto is one descent over either: scan the candidates (first the
// roots, then the found triangle's children) for one containing p,
// falling back to the nearest across a numeric crack, until a base
// triangle answers. Each scanned candidate logs its full packet span,
// consecutive repeats dropped.
//
// Contract, pinned by tests/baseline_pin_test.cc, tests/arena_test.cc and
// tests/failsafe_fuzz_test.cc: a tree-built layout is the in-memory
// trian-tree. Outside the kMergeEps * 100 border band a decoded layout's
// region is brute-force sub::PointLocator's (NotFound for a gap triangle
// outside the service area). Hostile bytes fail with a Status, never a
// crash or a hang.

#ifndef DTREE_BASELINES_KIRKPATRICK_ARENA_H_
#define DTREE_BASELINES_KIRKPATRICK_ARENA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "geom/triangle.h"

namespace dtree::baselines {

class TrianTree;

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

  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  friend class TrianTree;  // fills its layout as it builds

  struct Node {
    geom::Triangle tri;
    uint32_t first_child = 0;  ///< children: child_[first_child, + count)
    int32_t count = 0;         ///< child count; 0 = base triangle
    uint32_t data_ptr = 0;     ///< base triangle: its wire data pointer
    int32_t first_packet = 0;  ///< the node's full packet span
    int32_t last_packet = 0;
    uint32_t offset = 0;       ///< byte offset in first_packet
  };

  TrianTreeArena() = default;

  /// The descent from the roots: sets *region on success and, when
  /// `trace` is non-null, appends the packets read.
  Status Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                 int* region) const override;
  /// Releases the arrays' spare capacity once the layout is filled.
  void ShrinkToFit();

  /// A decoded cycle reports a failed descent as kDataLoss, a built tree
  /// as kInternal.
  bool decoded_ = false;
  /// Candidate scans a descent may make: DecodeBudget(num_packets) for a
  /// decoded cycle; the node count plus the child links for a tree, since
  /// a descent scans the roots and then one child list per level.
  int budget_ = 0;
  std::vector<uint32_t> roots_;  ///< layout indices of the root candidates
  std::vector<Node> nodes_;
  std::vector<uint32_t> child_;  ///< children, flattened across all nodes
};

/// Server-side arena for a built trian-tree: serializes and decodes back
/// using the tree's own RootLocations(). The ArenaIndex reports the
/// tree's identity, so experiment output is byte-identical with the
/// arena enabled.
Result<bcast::ArenaIndex> BuildTrianTreeArenaIndex(const TrianTree& tree,
                                                   int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_KIRKPATRICK_ARENA_H_
