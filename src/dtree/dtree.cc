#include "dtree/dtree.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <span>

#include "common/check.h"

namespace dtree::core {

namespace {

/// Transient child descriptor during recursive construction.
struct ChildRef {
  int node = -1;
  int region = -1;
};

}  // namespace

size_t DTree::NodeByteSize(DTreeNode* node, const Options& options) {
  // bid + header + left_ptr + right_ptr (Figure 7, Table 2).
  size_t size = bcast::kBidSize + bcast::kDTreeHeaderSize +
                2 * bcast::kPointerSize;
  for (const geom::Polyline& pl : node->polylines) {
    const size_t points = pl.pts.size() + (pl.closed ? 1 : 0);
    size += 2;                                   // per-polyline point count
    size += points * 2 * bcast::kCoordinateSize; // vertices
  }

  // Is the near shortcut bound recoverable as the partition's extreme
  // coordinate? (See the explicit_bounds comment in dtree.h.)
  double extreme = node->dim == PartitionDim::kYDim
                       ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
  for (const geom::Polyline& pl : node->polylines) {
    for (const geom::Point& p : pl.pts) {
      if (node->dim == PartitionDim::kYDim) {
        extreme = std::min(extreme, p.x);
      } else {
        extreme = std::max(extreme, p.y);
      }
    }
  }
  const bool near_recoverable =
      std::abs(extreme - node->near_bound) <= geom::kMergeEps;

  node->explicit_bounds = !near_recoverable;
  node->large = size + (node->explicit_bounds ? 2 * bcast::kCoordinateSize
                                              : size_t{0}) >
                static_cast<size_t>(options.packet_capacity);
  if (node->large && options.early_termination) {
    // §4.4 arrangement: RMC/LMC up front so D1/D3 queries resolve from the
    // node's first packet.
    node->explicit_bounds = true;
  }
  if (node->explicit_bounds) size += 2 * bcast::kCoordinateSize;
  node->large = size > static_cast<size_t>(options.packet_capacity);
  node->byte_size = size;
  return size;
}

Result<DTree> DTree::Build(const sub::Subdivision& sub,
                           const Options& options) {
  return Build(sub, options, nullptr);
}

Result<DTree> DTree::Build(const sub::Subdivision& sub, const Options& options,
                           BuildTimings* timings) {
  const auto phase_start = std::chrono::steady_clock::now();
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  if (options.packet_capacity < 24) {
    // A node's fixed prefix (bid + header + two pointers + RMC/LMC) must
    // fit in the first packet for the access protocol to work.
    return Status::InvalidArgument(
        "packet capacity too small for a D-tree node prefix");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }
  if (!options.access_weights.empty() &&
      options.access_weights.size() !=
          static_cast<size_t>(sub.NumRegions())) {
    return Status::InvalidArgument(
        "access_weights must have one entry per region");
  }

  DTree tree;
  tree.options_ = options;
  tree.num_regions_ = sub.NumRegions();

  if (sub.NumRegions() == 1) {
    // Degenerate index: no nodes; every probe resolves to region 0.
    tree.root_ = -1;
    tree.height_ = 0;
    return tree;
  }

  // Region ids sorted once per style key. A node's group is one range
  // [lo, hi) of all four lists; once a node has chosen its split, the
  // lists are split stably in place (the chosen list's low side first), so
  // each child's ranges are its ids sorted by every key, exactly as
  // sorting the child's group would give (the keys order totally). A
  // child's group order is its parent's chosen list; the root's is by id.
  const int num_regions = sub.NumRegions();
  std::vector<int> root_order(num_regions);
  std::iota(root_order.begin(), root_order.end(), 0);
  std::array<std::vector<int>, kNumStyleKeys> by_key;
  for (const PartitionStyle& style : EnumerateStyles(2)) {  // one per key
    std::vector<int>& ids = by_key[StyleKeyIndex(style)];
    ids = root_order;
    SortByStyleKey(sub, style, ids);
  }
  std::vector<uint8_t> in_low(num_regions);
  std::vector<int> spill(num_regions);
  PartitionScratch scratch;

  // Recursive construction (explicit because N can be large).
  Status build_status = Status::OK();
  auto build = [&](auto&& self, int lo, int hi, const int* order,
                   int depth) -> ChildRef {
    if (!build_status.ok()) return {};
    const int size = hi - lo;
    if (size == 1) return ChildRef{-1, by_key[0][lo]};
    SortedGroup group;
    group.order = std::span<const int>(order + lo, size);
    for (int key = 0; key < kNumStyleKeys; ++key) {
      group.by_key[key] = std::span<const int>(by_key[key]).subspan(lo, size);
    }
    int low_count = 0;
    Result<Partition> part_r =
        ChooseBestSplit(sub, group, options.interprob_tiebreak,
                        options.access_weights, &scratch, &low_count);
    if (!part_r.ok()) {
      build_status = part_r.status();
      return {};
    }
    Partition part = std::move(part_r).value();
    const int id = static_cast<int>(tree.nodes_.size());
    tree.nodes_.emplace_back();
    {
      DTreeNode& n = tree.nodes_[id];
      n.dim = part.style.dim;
      n.near_bound = part.near_bound;
      n.far_bound = part.far_bound;
      n.polylines = std::move(part.polylines);
      n.depth = depth;
    }
    const int chosen = StyleKeyIndex(part.style);
    const int mid = lo + low_count;
    for (int i = lo; i < hi; ++i) in_low[by_key[chosen][i]] = i < mid;
    for (int key = 0; key < kNumStyleKeys; ++key) {
      if (key == chosen) continue;
      int* out = by_key[key].data() + lo;
      int* spilled = spill.data();
      for (int i = lo; i < hi; ++i) {
        const int r = by_key[key][i];
        *(in_low[r] ? out++ : spilled++) = r;
      }
      std::copy(spill.data(), spilled, out);
    }
    // The first child is the low side of a kYDim split (left) and the
    // high side of a kXDim split (upper).
    const int* child_order = by_key[chosen].data();
    const bool first_low = part.style.dim == PartitionDim::kYDim;
    const ChildRef left = first_low
                              ? self(self, lo, mid, child_order, depth + 1)
                              : self(self, mid, hi, child_order, depth + 1);
    const ChildRef right = first_low
                               ? self(self, mid, hi, child_order, depth + 1)
                               : self(self, lo, mid, child_order, depth + 1);
    if (!build_status.ok()) return {};
    DTreeNode& n = tree.nodes_[id];
    n.left_node = left.node;
    n.left_region = left.region;
    n.right_node = right.node;
    n.right_region = right.region;
    NodeByteSize(&n, options);
    return ChildRef{id, -1};
  };

  const ChildRef root = build(build, 0, num_regions, root_order.data(), 0);
  if (!build_status.ok()) return build_status;
  DTREE_CHECK(root.node >= 0);
  tree.root_ = root.node;
  for (const DTreeNode& n : tree.nodes_) {
    tree.height_ = std::max(tree.height_, n.depth + 1);
  }

  // Breadth-first broadcast order.
  tree.bfs_order_.reserve(tree.nodes_.size());
  std::deque<int> queue{tree.root_};
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    tree.bfs_order_.push_back(id);
    const DTreeNode& n = tree.nodes_[id];
    if (n.left_node >= 0) queue.push_back(n.left_node);
    if (n.right_node >= 0) queue.push_back(n.right_node);
  }
  DTREE_CHECK(tree.bfs_order_.size() == tree.nodes_.size());
  tree.bfs_pos_.assign(tree.nodes_.size(), -1);
  for (size_t pos = 0; pos < tree.bfs_order_.size(); ++pos) {
    tree.bfs_pos_[tree.bfs_order_[pos]] = static_cast<int>(pos);
  }

  if (timings != nullptr) timings->partition_seconds = seconds_since(phase_start);
  const auto paging_start = std::chrono::steady_clock::now();

  // Page into packets (Algorithm 3).
  bcast::PagingInput input;
  input.sizes.reserve(tree.nodes_.size());
  input.parent.assign(tree.nodes_.size(), -1);
  input.is_leaf.reserve(tree.nodes_.size());
  for (int id : tree.bfs_order_) {
    input.sizes.push_back(tree.nodes_[id].byte_size);
    input.is_leaf.push_back(tree.nodes_[id].IsLeaf());
  }
  for (size_t pos = 0; pos < tree.bfs_order_.size(); ++pos) {
    const DTreeNode& n = tree.nodes_[tree.bfs_order_[pos]];
    if (n.left_node >= 0) {
      input.parent[tree.bfs_pos_[n.left_node]] = static_cast<int>(pos);
    }
    if (n.right_node >= 0) {
      input.parent[tree.bfs_pos_[n.right_node]] = static_cast<int>(pos);
    }
  }
  Result<bcast::PagingResult> paging_r = bcast::TopDownPage(
      input, options.packet_capacity, options.merge_leaf_packets);
  if (!paging_r.ok()) return paging_r.status();
  tree.paging_ = std::move(paging_r).value();
  if (timings != nullptr) timings->paging_seconds = seconds_since(paging_start);
  return tree;
}

int DTree::Locate(const geom::Point& p) const {
  if (root_ < 0) return num_regions_ == 1 ? 0 : -1;
  int id = root_;
  for (;;) {
    const DTreeNode& n = nodes_[id];
    if (PointInSubspaceTest(n.dim, n.near_bound, n.far_bound, n.polylines,
                            p)) {
      if (n.left_node < 0) return n.left_region;
      id = n.left_node;
    } else {
      if (n.right_node < 0) return n.right_region;
      id = n.right_node;
    }
  }
}

Status DTree::ProbeInto(const geom::Point& p,
                        bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  if (root_ < 0) {
    if (num_regions_ != 1) return Status::FailedPrecondition("empty tree");
    trace->region = 0;
    return Status::OK();
  }
  int id = root_;
  for (;;) {
    const DTreeNode& n = nodes_[id];
    bool via_shortcut = false;
    const bool first = PointInSubspaceTest(n.dim, n.near_bound, n.far_bound,
                                           n.polylines, p, &via_shortcut);

    // Packet accounting for reading this node.
    const bcast::NodeSpan& s = paging_.spans[bfs_pos_[id]];
    int packets_read;
    if (s.num_packets == 1) {
      packets_read = 1;
    } else if (options_.early_termination && via_shortcut) {
      packets_read = 1;  // pointers + RMC/LMC live in the first packet
    } else {
      packets_read = s.num_packets;
    }
    for (int k = 0; k < packets_read; ++k) {
      const int packet = s.first_packet + k;
      if (trace->packets.empty() || trace->packets.back() != packet) {
        trace->packets.push_back(packet);
        trace->origins.push_back({id, n.depth});
      }
    }

    if (first) {
      if (n.left_node < 0) {
        trace->region = n.left_region;
        return Status::OK();
      }
      id = n.left_node;
    } else {
      if (n.right_node < 0) {
        trace->region = n.right_region;
        return Status::OK();
      }
      id = n.right_node;
    }
  }
}

}  // namespace dtree::core
