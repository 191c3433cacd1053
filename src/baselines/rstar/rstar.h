// R*-tree baseline (Beckmann & Kriegel, SIGMOD'90) adapted to the air as
// in §3.2/§5 of the paper:
//  * full R* insertion — ChooseSubtree with overlap enlargement at the
//    leaf level, margin-driven split-axis selection, minimum-overlap
//    split distribution, and forced reinsertion (30%);
//  * an added bottom "shape layer" holding each region's exact polygon so
//    containment tests do not require fetching the 1 KB data instance;
//  * nodes sized to the packet (entry = 16 B MBR + 2 B pointer, 2 B bid),
//    one node per packet;
//  * depth-first broadcast order with the shape objects of each leaf
//    emitted right after it, so the DFS backtracking search only ever
//    jumps forward on the channel.
//
// The insertion's node array is build-only: once the tree is laid out
// for the air, its nodes, entries and shape rings fill the flat layout
// (rstar/arena.h) with their exact doubles, and that layout serves every
// probe and the serializer.

#ifndef DTREE_BASELINES_RSTAR_RSTAR_H_
#define DTREE_BASELINES_RSTAR_RSTAR_H_

#include <string>

#include "baselines/rstar/arena.h"
#include "broadcast/air_index.h"
#include "broadcast/packet_buffer.h"
#include "common/status.h"
#include "subdivision/subdivision.h"

namespace dtree::baselines {

class RStarTree final : public bcast::AirIndex {
 public:
  struct Options {
    int packet_capacity = 128;
  };

  static Result<RStarTree> Build(const sub::Subdivision& sub,
                                 const Options& options);

  // --- AirIndex -----------------------------------------------------------
  std::string name() const override { return "r*-tree"; }
  int NumIndexPackets() const override { return num_packets_; }
  size_t IndexBytes() const override { return index_bytes_; }
  int PacketCapacity() const override { return options_.packet_capacity; }
  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override {
    return layout_.ProbeInto(p, trace);
  }

  /// Point location by the same search, no packet accounting. Returns -1
  /// when the probe fails, e.g. for a point in no leaf MBR (outside the
  /// service area), as TrianTree::Locate does.
  int Locate(const geom::Point& p) const { return layout_.Locate(p); }

  // --- byte-level broadcast form -------------------------------------------
  // Wire format (little-endian; sizes per Table 2). Tree node, one per
  // packet at offset 0:
  //   u16  bid      — bit 15: 1 = leaf, 0 = internal; bits 0..14: entry
  //                   count
  //   count x entry — 4 x f32 MBR (min_x min_y max_x max_y, rounded
  //                   OUTWARD to f32 so no containment test is lost to
  //                   narrowing) + u16 pointer: child packet id for an
  //                   internal entry, region id for a leaf entry
  // Shape object (streamed after its leaf; a leaf's shapes start at the
  // packet right after the leaf's, offset 0, and follow each other in
  // entry order — each placed at the current fill offset when it fits the
  // packet's remainder and otherwise bumped to a fresh packet, with zero
  // padding in between; only a shape starting at offset 0 spans packets):
  //   u16  bid      — region id (diagnostic)
  //   u16  ptr      — region id (the data pointer)
  //   u16  count    — vertex count
  //   count x (f32 x, f32 y) — the polygon ring, first vertex not repeated
  // The root node is always the first DFS node, i.e. packet 0.

  /// One broadcast cycle's worth of index packets, each exactly
  /// `packet_capacity` bytes (zero-padded), written from the layout.
  /// RStarArena::Build is the client-side reader of these bytes.
  Result<bcast::PacketBuffer> SerializePackets() const;

  // --- introspection -------------------------------------------------------
  int max_entries() const { return max_entries_; }
  int min_entries() const { return min_entries_; }
  int num_tree_nodes() const { return layout_.num_nodes(); }
  int height() const { return height_; }
  /// Total leaf-MBR overlap area (diagnostic: why the R*-tree tunes badly
  /// on adjacent regions).
  double LeafOverlapArea() const;
  /// The flat layout: tree node i at depth-first position i.
  const RStarArena& layout() const { return layout_; }

 private:
  RStarTree() = default;

  Options options_;
  int max_entries_ = 0;
  int min_entries_ = 0;
  int height_ = 0;
  int num_packets_ = 0;
  size_t index_bytes_ = 0;
  RStarArena layout_;
};

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_RSTAR_RSTAR_H_
