// The D-tree's flat probe layout and its one descent (DESIGN.md §12).
//
// A DTreeArena holds a D-tree as one array of fixed-size node records
// (bounds, child links as 32-bit layout indices, packet span, origin), one
// array of points and a per-chain table (first point, point count, closed
// flag) for the division polylines. It is filled from one of two sources:
//
//  * DTree::Build appends each tree level's chains as the level is done,
//    in broadcast order, then fills the node records in preorder (layout
//    index = node id) with the tree's exact doubles, its paging spans and
//    its (node id, depth) origins. This is the tree's only copy of its
//    geometry: DTree::ProbeInto, DTree::Locate and SerializeDTree read it.
//  * DTreeArena::Build decodes a serialized cycle once — in framed mode
//    every packet's CRC is verified during the build, so the arena is only
//    ever constructed from verified frames — with the same f32→double
//    promotions and the same reconstructed-bound rule as the per-probe
//    packet decoder (dtree/wire.h).
//
// ProbeInto is Algorithm 2 over either: the D1/D3 comparisons against the
// node's near and far bounds, else the ray-crossing parity as a walk over
// the node's chains with geom::RayRightCrossesSegment's (or
// RayDownCrossesSegment's) exact arithmetic. Its packet accounting is the
// read-log a client produces: a read decided by the bounds stops in the
// node's first packet where the node carries explicit bounds under early
// termination (§4.4); any other read walks every packet the node occupies.
//
// Bit-identity contract: a wire-built arena equals QueryFromPackets
// everywhere on every cycle the arena accepts, since the decoder's
// early-termination test against the explicit bounds is the same
// comparison as the full test's against those bounds. (The arena rejects
// a data pointer to no region, which the per-probe decoder would return
// as it is.) A tree-built layout is the in-memory D-tree. The two agree
// outside the geom::kMergeEps * 100 band around region borders: the wire
// stores f32 coordinates, so a point closer to a border than their
// rounding may descend the other way. tests/arena_test pins both halves;
// tests/dtree_test pins the tree's probe.

#ifndef DTREE_DTREE_ARENA_H_
#define DTREE_DTREE_ARENA_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "broadcast/arena.h"
#include "broadcast/frame.h"
#include "common/status.h"
#include "geom/polygon.h"

namespace dtree::core {

class DTree;

class DTreeArena final : public bcast::FlatProbeEngine {
 public:
  /// node pointer -> origin annotation, used by the server-side build to
  /// attribute packet reads to tree nodes exactly as DTree::ProbeInto
  /// does. Client-side builds have no such map and emit traces with empty
  /// origins.
  using OriginMap = std::unordered_map<uint32_t, bcast::ProbePacketOrigin>;

  /// One division polyline of a node. A closed chain's last point joins
  /// its first; the first point is not repeated.
  struct Chain {
    std::span<const geom::Point> pts;
    bool closed = false;
  };

  /// Decodes every node reachable from (packet 0, offset 0) into the
  /// arena. In framed mode each packet's CRC is verified as the build
  /// first touches it, so corruption surfaces as kDataLoss here and the
  /// arena is never built over unverified bytes. Malformed input (node
  /// pointers off the stream, data pointers to no region among
  /// `num_regions`, overlapping nodes run amok) also fails with kDataLoss.
  static Result<DTreeArena> Build(const bcast::PacketBuffer& packets,
                                  int packet_capacity, bool framed,
                                  bool early_termination, int num_regions,
                                  const OriginMap* origins = nullptr);

  size_t ArenaBytes() const override;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Node i's chains are chain(i, k) for k in [0, num_chains(i)).
  uint32_t num_chains(int node) const {
    return nodes_[node].end_chain - nodes_[node].first_chain;
  }
  Chain chain(int node, uint32_t k) const {
    const ChainRecord& r = chains_[nodes_[node].first_chain + k];
    return {std::span<const geom::Point>(points_).subspan(r.first, r.size),
            r.closed};
  }

 private:
  friend class DTree;  // fills its layout as it builds

  struct Node {
    /// Algorithm 2's bounds: p.x <= near_b (kYDim) or p.y >= near_b
    /// (kXDim) descends first, p.x >= far_b or p.y <= far_b second.
    double near_b = 0.0;
    double far_b = 0.0;
    uint32_t left = 0;   ///< kDataPtrBit | region, else a layout index
    uint32_t right = 0;
    uint32_t first_chain = 0;  ///< chains [first_chain, end_chain)
    uint32_t end_chain = 0;
    int32_t first_packet = 0;
    int32_t full_last = 0;  ///< last packet of a full read
    bcast::ProbePacketOrigin origin;
    bool x_dim = false;
    /// Explicit bounds under early termination: a read decided by them
    /// stops in the first packet.
    bool stops_early = false;
  };
  struct ChainRecord {
    uint32_t first = 0;  ///< index of the chain's first point
    uint32_t size = 0;
    bool closed = false;
  };

  DTreeArena() = default;

  /// A tree's layout with `num_nodes` node records (index = preorder node
  /// id), which AddLevel and SetNodes fill.
  DTreeArena(int num_regions, int num_nodes);
  /// Appends one finished tree level's chains, growing the arrays to
  /// exactly their new size: node ids[k] gets chains[k].
  void AddLevel(std::span<const int> ids,
                std::span<const std::vector<geom::Polyline>> chains);
  /// Fills every node record but its chains from the built tree, whose
  /// nodes and paging spans are final.
  void SetNodes(const DTree& tree);

  /// Algorithm 2 from the root: sets *region on success and, when `trace`
  /// is non-null, appends the packets read (and their origins).
  Status Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                 int* region) const override;

  bool has_origins_ = false;
  int num_regions_ = 0;
  /// Hop bound of a descent: DecodeBudget(num_packets), as the wire
  /// decoder uses, for a decoded cycle; the node count for a tree.
  int budget_ = 0;
  std::vector<Node> nodes_;
  std::vector<ChainRecord> chains_;
  std::vector<geom::Point> points_;
};

/// Server-side arena for a built D-tree: serializes the tree and decodes
/// the bytes back, annotating nodes with origins so probe traces —
/// region, packets, AND origins — equal tree.ProbeInto's for every point
/// outside the kMergeEps * 100 border band (and the wire decoder's
/// everywhere). The returned ArenaIndex reports the tree's own
/// name/packet/byte identity.
Result<bcast::ArenaIndex> BuildDTreeArenaIndex(const DTree& tree);

}  // namespace dtree::core

#endif  // DTREE_DTREE_ARENA_H_
