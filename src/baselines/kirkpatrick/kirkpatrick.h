// Kirkpatrick planar point-location hierarchy (the paper's "trian-tree"
// baseline, §3.1 / Figure 3).
//
// Construction:
//  1. Triangulate the subdivision: each (convex) Voronoi region is
//     ear-clipped, and the gap between the service area and an enclosing
//     bounding rectangle is triangulated with corner fans (see
//     subdivision/triangulate.h). Every base triangle carries its data
//     region (-1 for gap triangles).
//  2. Repeatedly remove an independent set of interior vertices of degree
//     <= 8 (Kirkpatrick's constant), re-triangulating each star hole by
//     ear clipping, and linking every new triangle to the removed
//     triangles it overlaps.
//  3. Stop when no removable vertex remains or the top level has at most
//     5 triangles (the paper's example). The DAG root is the list of surviving
//     triangles, probed sequentially (Figure 3(d) has a multi-child root).
//
// Query: scan the root triangles for one containing p, then repeatedly
// descend to the overlapping child triangle containing p until reaching a
// base triangle; its region label answers the query.
//
// On the air: node = bid (2 B) + 3 vertices (24 B) + 4 B pointers, one per
// child (Table 2; header 0). Nodes are paged greedily in breadth-first
// order — a DAG node has several parents, so the top-down parent-packet
// heuristic does not apply (§5).
//
// The triangle hierarchy is build-only: once it is paged, its triangles
// and child lists fill the flat layout (kirkpatrick/arena.h) with their
// exact doubles, and that layout serves every probe and the serializer.

#ifndef DTREE_BASELINES_KIRKPATRICK_KIRKPATRICK_H_
#define DTREE_BASELINES_KIRKPATRICK_KIRKPATRICK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kirkpatrick/arena.h"
#include "broadcast/air_index.h"
#include "broadcast/packet_buffer.h"
#include "common/status.h"
#include "subdivision/subdivision.h"

namespace dtree::baselines {

class TrianTree final : public bcast::AirIndex {
 public:
  struct Options {
    int packet_capacity = 128;
  };

  static Result<TrianTree> Build(const sub::Subdivision& sub,
                                 const Options& options);

  // --- AirIndex -----------------------------------------------------------
  std::string name() const override { return "trian-tree"; }
  int NumIndexPackets() const override { return num_packets_; }
  size_t IndexBytes() const override { return index_bytes_; }
  int PacketCapacity() const override { return options_.packet_capacity; }
  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override {
    return layout_.ProbeInto(p, trace);
  }

  /// Point location by the same descent, no packet accounting; -1 where
  /// ProbeInto fails, e.g. for a point outside the service area.
  int Locate(const geom::Point& p) const { return layout_.Locate(p); }

  // --- byte-level broadcast form -------------------------------------------
  // Node wire format (little-endian; sizes per Table 2, header 0):
  //   u16  bid      — bits 12..15: child count (0 = base triangle);
  //                   bits 0..11: broadcast position mod 4096 (diagnostic)
  //   6 x f32       — triangle vertices v0.x v0.y v1.x v1.y v2.x v2.y
  //   max(1, count) x u32 pointers (broadcast/frame.h encoding):
  //     count = 0   one data pointer: region id, or kOutsideRegionPtr for
  //                 gap triangles outside the service area
  //     count > 0   one node pointer (packet, offset) per child

  /// One broadcast cycle's worth of index packets, each exactly
  /// `packet_capacity` bytes (zero-padded), written from the layout.
  /// InvalidArgument when a node has more children than the 4-bit count
  /// field can carry. TrianTreeArena::Build is the client-side reader of
  /// these bytes.
  Result<bcast::PacketBuffer> SerializePackets() const;

  /// Reader entry points: (packet, byte offset) of every root triangle
  /// node, in probe order. The roots are not contiguous on the channel
  /// (broadcast order is level-descending and the surviving top-level
  /// triangles span levels), so a real client learns these locations from
  /// the broadcast schedule header — trusted metadata, unlike the packet
  /// bytes themselves.
  std::vector<std::pair<int, size_t>> RootLocations() const;

  // --- introspection -------------------------------------------------------
  int num_triangles() const { return layout_.num_nodes(); }
  int num_root_triangles() const {
    return static_cast<int>(layout_.roots_.size());
  }
  int num_levels() const { return num_levels_; }
  /// The flat layout: triangle i at broadcast position i.
  const TrianTreeArena& layout() const { return layout_; }

 private:
  TrianTree() = default;

  Options options_;
  int num_levels_ = 1;
  int num_packets_ = 0;
  size_t index_bytes_ = 0;
  TrianTreeArena layout_;
};

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_KIRKPATRICK_KIRKPATRICK_H_
