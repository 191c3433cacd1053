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
// top-down (first preceding parent) and broadcast in creation order, which
// provably places every parent before its children even though subtrees
// are shared — so the client only ever jumps forward on the channel.

#ifndef DTREE_BASELINES_TRAPMAP_TRAPMAP_H_
#define DTREE_BASELINES_TRAPMAP_TRAPMAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/packet_buffer.h"
#include "broadcast/pager.h"
#include "common/rng.h"
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
    bool merge_leaf_packets = true;
  };

  static Result<TrapMap> Build(const sub::Subdivision& sub,
                               const Options& options);

  // --- AirIndex -----------------------------------------------------------
  std::string name() const override { return "trap-tree"; }
  int NumIndexPackets() const override { return paging_.num_packets; }
  size_t IndexBytes() const override { return paging_.used_bytes; }
  int PacketCapacity() const override { return options_.packet_capacity; }
  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override;

  /// In-memory point location through the DAG, no packet accounting.
  /// Returns -1 when the descent exceeds the probe step budget (a
  /// construction bug; never happens for a valid map).
  int Locate(const geom::Point& p) const;

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
  // p.x exactly equal to the endpoint's x may take the other branch — a
  // measure-zero event for continuous query distributions.

  /// One broadcast cycle's worth of index packets, each exactly
  /// `packet_capacity` bytes (zero-padded). InvalidArgument for the
  /// degenerate map with no internal DAG nodes. TrapMapArena
  /// (trapmap/arena.h) is the client-side reader of these bytes.
  Result<bcast::PacketBuffer> SerializePackets() const;

  // --- introspection -------------------------------------------------------
  int num_dag_nodes() const;
  int num_alive_trapezoids() const;
  int num_segments() const { return static_cast<int>(segs_.size()); }
  /// Structural validation: every alive trapezoid is reachable, DAG
  /// internal nodes have two children, and random probe points land in a
  /// trapezoid that geometrically contains them.
  Status CheckInvariants(int sample_points, uint64_t seed) const;

 private:
  struct Seg {
    geom::Point p, q;  ///< p lex< q
  };
  struct Trap {
    int top = -1;     ///< segment bounding above
    int bottom = -1;  ///< segment bounding below
    int leftp = -1;   ///< point id bounding the slab on the left
    int rightp = -1;  ///< point id bounding the slab on the right
    int leaf = -1;    ///< DAG leaf node id
    int region = -1;  ///< data region label (assigned after construction)
    bool alive = true;
  };
  struct DagNode {
    enum Kind : uint8_t { kXNode, kYNode, kLeaf };
    Kind kind = kLeaf;
    int index = -1;  ///< point id / segment id / trapezoid id
    int left = -1;   ///< x: lex-less side; y: above side
    int right = -1;  ///< x: lex-greater-or-equal side; y: below side
    /// Insertion step at which this slot became an internal node. Parents
    /// always turn internal strictly before (or, within one step, at a
    /// smaller slot id than) their internal children, so broadcasting in
    /// (step, id) order yields a forward-only channel layout.
    int step = 0;
  };

  TrapMap() = default;

  int NewPoint(const geom::Point& p);
  int NewTrap(const Trap& t);
  int NewLeaf(int trap_id);

  /// True when `pt` is strictly above segment s (lexicographic shear
  /// applied for on-line ties via `s_hint`, the segment being inserted).
  bool AboveForInsert(const geom::Point& pt, int seg_id,
                      const Seg& s_hint) const;

  /// DAG descent for the point on `s` infinitesimally lex-right of `w`.
  int LocateTarget(const Seg& s, const geom::Point& w) const;

  /// All trapezoids crossed by s, left to right.
  std::vector<int> FindCrossedTrapezoids(const Seg& s) const;

  void InsertSegment(const Seg& s);

  /// Query-time descent; returns the leaf trapezoid id and appends the
  /// visited internal DAG node ids to `visited` when non-null.
  int LocateTrapezoid(const geom::Point& p,
                      std::vector<int>* visited) const;

  Status AssignRegions(const sub::Subdivision& sub);
  Status Page();

  Options options_;
  std::vector<geom::Point> points_;
  std::vector<Seg> segs_;
  std::vector<Trap> traps_;
  std::vector<DagNode> dag_;
  int root_ = -1;

  // Broadcast layout (internal DAG nodes only; leaves ride in pointers).
  std::vector<int> bfs_order_;          ///< bfs position -> dag node id
  std::vector<int> node_bfs_pos_;       ///< dag node id -> bfs position
  bcast::PagingResult paging_;
};

}  // namespace dtree::baselines

#endif  // DTREE_BASELINES_TRAPMAP_TRAPMAP_H_
