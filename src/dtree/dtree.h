// The D-tree air index — the paper's primary contribution.
//
// A binary height-balanced tree over the data regions. Each internal node
// divides two complementary subspaces by a set of polylines; a query
// descends by testing which side of the division it falls on (Algorithm
// 2) until it reaches a data pointer. Nodes are laid out into broadcast
// packets with the paper's top-down paging (Algorithm 3) and broadcast in
// breadth-first order. The node records below keep the routing fields,
// links and paging attributes; the division polylines live only in the
// tree's flat layout (layout(), a DTreeArena), which also serves every
// probe.

#ifndef DTREE_DTREE_DTREE_H_
#define DTREE_DTREE_DTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/pager.h"
#include "broadcast/params.h"
#include "common/status.h"
#include "dtree/arena.h"
#include "dtree/partition.h"
#include "subdivision/subdivision.h"

namespace dtree::core {

/// One node of the binary D-tree (Figure 7 / Table 1 of the paper).
struct DTreeNode {
  PartitionDim dim = PartitionDim::kYDim;
  double near_bound = 0.0;  ///< right_lmc (kYDim) / lower_umc (kXDim)
  double far_bound = 0.0;   ///< left_rmc / upper_lwc

  /// Child links: exactly one of {x_node, x_region} is set per side.
  int left_node = -1;
  int right_node = -1;
  int left_region = -1;
  int right_region = -1;

  int depth = 0;
  size_t byte_size = 0;  ///< serialized size, capacity-dependent
  bool large = false;    ///< node larger than one packet
  /// The wire format carries RMC/LMC explicitly. This is required (a) for
  /// large nodes under early termination (§4.4) and (b) whenever the near
  /// shortcut bound is not recoverable as the partition's extreme
  /// coordinate — which happens when the complementary subspace touches
  /// the service-area border, a case Algorithm 2's "leftmost x-coordinate
  /// of the partition" reading would misroute.
  bool explicit_bounds = false;

  bool IsLeaf() const { return left_node < 0 && right_node < 0; }
};

class DTree final : public bcast::AirIndex {
 public:
  struct Options {
    int packet_capacity = 128;
    /// Break partition-size ties by the inter-prob criterion (§4.2).
    bool interprob_tiebreak = true;
    /// §4.4 arrangement for multi-packet nodes: pointers first plus
    /// explicit RMC/LMC bounds, so D1/D3 queries resolve after the first
    /// packet. Disabling it removes the extra fields and forces the client
    /// to read every packet of a large node (ablation).
    bool early_termination = true;
    /// Greedy merging of partial leaf-level packets (Algorithm 3 lines
    /// 19-25), constrained to preserve forward-only broadcast access.
    bool merge_leaf_packets = true;
    /// Optional per-region access probabilities (any non-negative scale;
    /// indexed by region id; empty = uniform). When set, partitions split
    /// at equal access mass instead of equal cardinality, shortening the
    /// paths of hot regions — the skew-aware variant discussed in
    /// DESIGN.md (§ extensions). The tree is then weight-balanced rather
    /// than height-balanced.
    std::vector<double> access_weights;
    /// Threads computing the nodes of one tree level at once; <= 0 selects
    /// ThreadPool::DefaultThreads(), which builds subdivisions of fewer
    /// than 2048 regions on the caller alone. The tree is bit-identical
    /// for every value.
    int num_threads = 0;
  };

  /// Wall-clock breakdown of Build, for the build-scaling bench: the
  /// partition phase (the level loop over ChooseBestSplit, plus the
  /// broadcast order) versus the packet-paging phase (Algorithm 3, then
  /// the flat layout, which takes the spans).
  struct BuildTimings {
    double partition_seconds = 0.0;
    double paging_seconds = 0.0;
  };

  /// Builds and pages the D-tree for a stitched subdivision. `timings`,
  /// when non-null, receives the per-phase wall-clock breakdown.
  static Result<DTree> Build(const sub::Subdivision& sub,
                             const Options& options);
  static Result<DTree> Build(const sub::Subdivision& sub,
                             const Options& options, BuildTimings* timings);

  // --- AirIndex interface -------------------------------------------------
  std::string name() const override { return "d-tree"; }
  int NumIndexPackets() const override { return paging_.num_packets; }
  size_t IndexBytes() const override { return paging_.used_bytes; }
  int PacketCapacity() const override { return options_.packet_capacity; }
  Status ProbeInto(const geom::Point& p,
                   bcast::ProbeTrace* trace) const override {
    return layout_.ProbeInto(p, trace);
  }

  // --- direct (in-memory) query -------------------------------------------
  /// Region containing p; the same descent, no packet accounting.
  int Locate(const geom::Point& p) const { return layout_.Locate(p); }

  // --- introspection -------------------------------------------------------
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const DTreeNode& node(int i) const { return nodes_[i]; }
  int root() const { return root_; }
  /// Max node depth + 1; 0 for a single-region tree.
  int height() const { return height_; }
  const bcast::PagingResult& paging() const { return paging_; }
  const bcast::NodeSpan& span(int node) const { return paging_.spans[bfs_pos_[node]]; }
  const Options& options() const { return options_; }
  int num_regions() const { return num_regions_; }
  /// Nodes in broadcast (breadth-first) order.
  const std::vector<int>& bfs_order() const { return bfs_order_; }
  /// The flat layout: node i at index i with its chains, exact bounds,
  /// paging span and origin.
  const DTreeArena& layout() const { return layout_; }

 private:
  DTree() = default;

  /// Serialized size of a node with the given division chains under the
  /// given options; sets `large` and `explicit_bounds`.
  static size_t NodeByteSize(const std::vector<geom::Polyline>& chains,
                             DTreeNode* node, const Options& options);

  Options options_;
  int num_regions_ = 0;
  int root_ = -1;
  int height_ = 0;
  std::vector<DTreeNode> nodes_;
  std::vector<int> bfs_order_;  ///< bfs position -> node id
  std::vector<int> bfs_pos_;    ///< node id -> bfs position
  bcast::PagingResult paging_;  ///< spans indexed by bfs position
  DTreeArena layout_;
};

}  // namespace dtree::core

#endif  // DTREE_DTREE_DTREE_H_
