// Flat-arena probe engine for the trapezoidal-map baseline (DESIGN.md
// §12), and the family's one client-side reader of TrapMap's wire bytes:
// the serialized DAG decoded once — CRC-verified in framed mode — into
// structure-of-arrays node records, so probes branch over contiguous
// typed arrays instead of re-parsing wire bytes per query. ProbeInto
// branches on the promoted f32 wire values (x-node: p.x < x; y-node:
// OrientValue over the segment endpoints > 0) and logs one packet per
// visited DAG node, deduplicated when consecutive, as TrapMap::ProbeInto
// does.
//
// Contract, pinned by tests/arena_test.cc and tests/failsafe_fuzz_test.cc:
// outside the kMergeEps * 100 border band the region is brute-force
// sub::PointLocator's; outcomes on fixed inputs match golden digests; and
// hostile bytes fail with a Status, never a crash or a hang. Within half
// an f32 ulp of a vertex coordinate (~3e-5 near 1000) the wire's rounded
// x-node walls can send a probe down other x-nodes than TrapMap::ProbeInto
// takes, so the packet log, though not the region, may differ from the
// in-memory one there.

#ifndef DTREE_BASELINES_TRAPMAP_ARENA_H_
#define DTREE_BASELINES_TRAPMAP_ARENA_H_

#include <cstdint>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "baselines/trapmap/trapmap.h"

namespace dtree::baselines {

class TrapMapArena final : public bcast::FlatProbeEngine {
 public:
  /// Decodes every DAG node reachable from (packet 0, offset 0). In
  /// framed mode each packet's CRC is verified as the build first touches
  /// it; malformed pointers or out-of-range region labels fail with
  /// kDataLoss, so the arena is never built over unverified bytes.
  static Result<TrapMapArena> Build(const bcast::PacketBuffer& packets,
                                    int packet_capacity, bool framed,
                                    int num_regions);

  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;
  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(left_.size()); }

 private:
  TrapMapArena() = default;

  int budget_ = 0;  ///< DecodeBudget(num_packets): caps a probe's hops

  // --- per-node records (structure of arrays) ---------------------------
  std::vector<uint8_t> is_y_;      ///< 1 = y-node (segment), 0 = x-node
  std::vector<double> x_;          ///< x-node: promoted endpoint x
  std::vector<double> px_, py_, qx_, qy_;  ///< y-node: promoted segment
  std::vector<uint32_t> left_, right_;     ///< kDataPtrBit kept; else index
  std::vector<int32_t> packet_;    ///< the node's (single) packet
};

/// Server-side arena for a built trap-tree: serializes and decodes back.
/// The ArenaIndex reports the map's own identity, so experiment output is
/// byte-identical with the arena enabled.
Result<bcast::ArenaIndex> BuildTrapMapArenaIndex(const TrapMap& map,
                                                 int num_regions);

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_TRAPMAP_ARENA_H_
