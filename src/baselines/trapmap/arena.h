// The trap-tree's flat probe layout and its one descent (DESIGN.md §12).
//
// A TrapMapArena holds the search DAG's internal nodes as one array of
// fixed-size records: the node's geometry, its two child links (a layout
// index, or a data pointer to a trapezoid's region) and the packet and
// byte offset it is broadcast at. It is filled from one of two sources:
//
//  * TrapMap::Build fills it, in broadcast order, from the DAG's exact
//    doubles: an x-node's endpoint x and y, a y-node's segment.
//  * TrapMapArena::Build decodes a serialized cycle once — CRC-verified in
//    framed mode — from promoted f32s. The wire carries only an x-node's
//    x, so a decoded x-node's y is −∞.
//
// ProbeInto is one descent over either: an x-node sends p left when p is
// lexicographically (x, y)-less than its endpoint — the wire's p.x < x
// for a decoded node — and a y-node when p is strictly above its segment
// (OrientValue > 0). It logs one packet per visited node, consecutive
// repeats dropped.
//
// Contract, pinned by tests/baseline_pin_test.cc, tests/arena_test.cc and
// tests/failsafe_fuzz_test.cc: a tree-built layout is the in-memory
// trap-tree. Outside the kMergeEps * 100 border band a decoded layout's
// region is brute-force sub::PointLocator's; within half an f32 ulp of a
// vertex coordinate (~3e-5 near 1000) its rounded walls can take other
// x-nodes than the built tree, so the packet log, though not the region,
// may differ there. Hostile bytes fail with a Status, never a crash or a
// hang.

#ifndef DTREE_BASELINES_TRAPMAP_ARENA_H_
#define DTREE_BASELINES_TRAPMAP_ARENA_H_

#include <cstdint>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"

namespace dtree::baselines {

class TrapMap;

class TrapMapArena final : public bcast::FlatProbeEngine {
 public:
  /// Decodes every DAG node reachable from (packet 0, offset 0). In
  /// framed mode each packet's CRC is verified as the build first touches
  /// it; malformed pointers or out-of-range region labels fail with
  /// kDataLoss, so the arena is never built over unverified bytes.
  static Result<TrapMapArena> Build(const bcast::PacketBuffer& packets,
                                    int packet_capacity, bool framed,
                                    int num_regions);

  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  friend class TrapMap;  // fills its layout as it builds

  struct Node {
    /// x-node: the endpoint (a[0], a[1]); y-node: the segment from
    /// (a[0], a[1]) to (a[2], a[3]).
    double a[4] = {};
    uint32_t left = 0;   ///< kDataPtrBit | region, else a layout index
    uint32_t right = 0;
    int32_t packet = 0;
    uint32_t offset = 0;  ///< byte offset in the packet
    bool is_y = false;
  };

  TrapMapArena() = default;

  /// The descent from the root: sets *region on success and, when `trace`
  /// is non-null, appends the packets read.
  Status Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                 int* region) const override;

  /// A decoded cycle reports an exhausted hop budget as kDataLoss, a
  /// built tree as kInternal.
  bool decoded_ = false;
  /// Hop bound of a descent: DecodeBudget(num_packets) for a decoded
  /// cycle; the node count for a tree, whose descent visits each node at
  /// most once.
  int budget_ = 0;
  std::vector<Node> nodes_;
};

/// Server-side arena for a built trap-tree: serializes and decodes back.
/// The ArenaIndex reports the map's own identity, so experiment output is
/// byte-identical with the arena enabled.
Result<bcast::ArenaIndex> BuildTrapMapArenaIndex(const TrapMap& map,
                                                 int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_TRAPMAP_ARENA_H_
