// Trapezoidal-map planar point location (the paper's "trap-tree"
// baseline): the randomized incremental construction of de Berg et al.,
// Computational Geometry ch. 6, adapted to the air.
//
// The search structure is a DAG with two internal node kinds:
//  * x-node — a segment endpoint; queries branch on lexicographic (x, y)
//    order (the textbook symbolic shear, which also handles vertical
//    Voronoi edges and endpoints with equal x);
//  * y-node — a segment; queries branch on above/below.
// Leaves are trapezoids, each labeled at build time with the data region
// containing it; on the air a leaf is simply a data pointer embedded in
// its parent's child slot.
//
// Implementation note: this construction maintains the map purely through
// the DAG — the "which trapezoids does the new segment cross" walk
// re-locates the continuation point through the DAG instead of following
// trapezoid neighbor pointers. This is O(k log n) instead of O(k) per
// insertion (irrelevant at this scale) and eliminates the neighbor-pointer
// bookkeeping that is the classic source of degeneracy bugs.
//
// Per Table 2: node sizes use bid 2 B, pointer 4 B, coordinate 4 B, no
// header (x-node payload 1 coordinate, y-node payload 4). The DAG is paged
// top-down (first preceding parent, leaf packets merged) and broadcast in
// creation order, which provably places every parent before its children
// even though subtrees are shared — so the client only ever jumps forward
// on the channel.
//
// The DAG and its trapezoids are build-only: once the map is paged, its
// internal nodes fill the flat layout (trapmap/arena.h) with their exact
// doubles, and that layout serves every probe and the serializer.

#ifndef DTREE_BASELINES_TRAPMAP_TRAPMAP_H_
#define DTREE_BASELINES_TRAPMAP_TRAPMAP_H_

#include <cstdint>
#include <string>

#include "baselines/trapmap/arena.h"
#include "broadcast/air_index.h"
#include "broadcast/packet_buffer.h"
#include "common/status.h"
#include "subdivision/subdivision.h"

namespace dtree::baselines {

class TrapMap final : public bcast::AirIndex {
 public:
  struct Options {
    int packet_capacity = 128;
    /// Seed for the random insertion order (the construction is
    /// randomized incremental).
    uint64_t seed = 1;
  };

  static Result<TrapMap> Build(const sub::Subdivision& sub,
                               const Options& options);

  /// Structural validation of the search DAG that Build(sub, options)
  /// constructs, run on a rebuild before any layout replaces it: every DAG
  /// internal node has two valid children, every alive trapezoid and no
  /// dead one is reachable, and `sample_points` random probe points land
  /// in a trapezoid whose slab, top and bottom contain them.
  static Status CheckInvariants(const sub::Subdivision& sub,
                                const Options& options, int sample_points,
                                uint64_t seed);

  // --- AirIndex -----------------------------------------------------------
  std::string name() const override { return "trap-tree"; }
  int NumIndexPackets() const override { return num_packets_; }
  size_t IndexBytes() const override { return index_bytes_; }
  int PacketCapacity() const override { return options_.packet_capacity; }
  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override {
    return layout_.ProbeInto(p, trace);
  }

  /// Point location by the same descent, no packet accounting; -1 where
  /// ProbeInto fails (never for a valid map).
  int Locate(const geom::Point& p) const { return layout_.Locate(p); }

  // --- byte-level broadcast form -------------------------------------------
  // Node wire format (little-endian; sizes per Table 2, no header):
  //   u16  bid      — bit 15: node kind (0 = x-node, 1 = y-node);
  //                   bits 0..14: broadcast position mod 2^15 (diagnostic)
  //   u32  left     — pointer (broadcast/frame.h encoding): node pointer
  //   u32  right      for an internal child, data pointer (region id) for
  //                   a trapezoid leaf
  //   payload       — x-node: f32 endpoint x (14 B total);
  //                   y-node: 4 x f32 segment p.x p.y q.x q.y (22 B total)
  //
  // The root node always serializes at packet 0, offset 0 (creation order
  // broadcasts it first), so a reader needs no out-of-band entry point.
  // Caveat: an x-node branches on the lexicographic (x, y) order in memory
  // but only x fits the 4-byte wire payload, so an on-the-wire query with
  // p.x exactly equal to the endpoint's x takes the right branch whatever
  // its y — a measure-zero event for continuous query distributions.

  /// One broadcast cycle's worth of index packets, each exactly
  /// `packet_capacity` bytes (zero-padded), written from the layout.
  /// TrapMapArena::Build is the client-side reader of these bytes.
  Result<bcast::PacketBuffer> SerializePackets() const;

  // --- introspection -------------------------------------------------------
  int num_dag_nodes() const { return layout_.num_nodes(); }
  int num_alive_trapezoids() const { return num_alive_trapezoids_; }
  /// Inserted edges plus the bounding box's top and bottom.
  int num_segments() const { return num_segments_; }
  /// The flat layout: internal DAG node i at broadcast position i.
  const TrapMapArena& layout() const { return layout_; }

 private:
  TrapMap() = default;

  Options options_;
  int num_packets_ = 0;
  size_t index_bytes_ = 0;
  int num_alive_trapezoids_ = 0;
  int num_segments_ = 0;
  TrapMapArena layout_;
};

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_TRAPMAP_TRAPMAP_H_
