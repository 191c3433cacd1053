#include "dtree/dtree.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"

namespace dtree::core {

namespace {

/// Default-thread builds of smaller subdivisions stay on the caller, as
/// Voronoi clipping does.
constexpr int kMinParallelRegions = 2048;

/// One node of a tree level still to be computed: its group is the range
/// [lo, hi) of every sorted list, in the group order of list `order_key`
/// (-1: by id, the root's), and `id` is its preorder id.
struct NodeTask {
  int lo = 0;
  int hi = 0;
  int order_key = -1;
  int id = -1;
};

/// What one lane of the level loop owns: its partition scratch, and the
/// lowest-id node that failed on it.
struct Lane {
  PartitionScratch scratch;
  int failed_id = std::numeric_limits<int>::max();
  Status failed = Status::OK();
};

}  // namespace

size_t DTree::NodeByteSize(const std::vector<geom::Polyline>& chains,
                           DTreeNode* node, const Options& options) {
  // bid + header + left_ptr + right_ptr (Figure 7, Table 2).
  size_t size = bcast::kBidSize + bcast::kDTreeHeaderSize +
                2 * bcast::kPointerSize;
  for (const geom::Polyline& pl : chains) {
    const size_t points = pl.pts.size() + (pl.closed ? 1 : 0);
    size += 2;                                   // per-polyline point count
    size += points * 2 * bcast::kCoordinateSize; // vertices
  }

  // Is the near shortcut bound recoverable as the partition's extreme
  // coordinate? (See the explicit_bounds comment in dtree.h.)
  double extreme = node->dim == PartitionDim::kYDim
                       ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
  for (const geom::Polyline& pl : chains) {
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
  tree.layout_ = DTreeArena(sub.NumRegions(), sub.NumRegions() - 1);

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
  const std::vector<double> region_area =
      options.interprob_tiebreak ? RegionAreas(sub) : std::vector<double>();

  // A group of s regions has s - 1 internal nodes, numbered in preorder:
  // the first child is id + 1 and the second id + (first child's size).
  tree.nodes_.resize(num_regions - 1);
  tree.bfs_order_.reserve(num_regions - 1);
  const int threads =
      options.num_threads > 0
          ? options.num_threads
          : (num_regions < kMinParallelRegions ? 1
                                               : ThreadPool::DefaultThreads());
  ThreadPool pool(threads);
  std::vector<Lane> lanes(threads);

  // Computes one node: its split, its fields, the split of the other three
  // lists over its range (spilling at spill + lo), and its child tasks in
  // slots 2t and 2t + 1 of the next level. Sibling ranges are disjoint, so
  // the tasks of a level write no element in common.
  std::vector<NodeTask> level{NodeTask{0, num_regions, -1, 0}};
  std::vector<NodeTask> next;
  std::vector<std::vector<geom::Polyline>> level_chains;  // by slot
  const auto run_task = [&](Lane& lane, int depth, size_t t) {
    const NodeTask task = level[t];
    const int size = task.hi - task.lo;
    SortedGroup group;
    group.order =
        std::span<const int>(task.order_key < 0 ? root_order
                                                : by_key[task.order_key])
            .subspan(task.lo, size);
    for (int key = 0; key < kNumStyleKeys; ++key) {
      group.by_key[key] =
          std::span<const int>(by_key[key]).subspan(task.lo, size);
    }
    int low_count = 0;
    Result<Partition> part_r = ChooseBestSplit(
        sub, group, options.interprob_tiebreak, options.access_weights,
        region_area, &lane.scratch, &low_count);
    if (!part_r.ok()) {
      if (task.id < lane.failed_id) {
        lane.failed_id = task.id;
        lane.failed = part_r.status();
      }
      return;
    }
    Partition part = std::move(part_r).value();
    const int chosen = StyleKeyIndex(part.style);
    const int mid = task.lo + low_count;
    for (int i = task.lo; i < task.hi; ++i) {
      in_low[by_key[chosen][i]] = i < mid;
    }
    for (int key = 0; key < kNumStyleKeys; ++key) {
      if (key == chosen) continue;
      int* out = by_key[key].data() + task.lo;
      int* spilled = spill.data() + task.lo;
      for (int i = task.lo; i < task.hi; ++i) {
        const int r = by_key[key][i];
        *(in_low[r] ? out++ : spilled++) = r;
      }
      std::copy(spill.data() + task.lo, spilled, out);
    }

    // The first child is the low side of a kYDim split (left) and the
    // high side of a kXDim split (upper). A one-region child is a region
    // link; a larger one is the next level's task.
    const bool first_low = part.style.dim == PartitionDim::kYDim;
    const NodeTask first{first_low ? task.lo : mid,
                         first_low ? mid : task.hi, chosen, task.id + 1};
    const NodeTask second{first_low ? mid : task.lo,
                          first_low ? task.hi : mid, chosen,
                          task.id + (first.hi - first.lo)};
    DTreeNode& n = tree.nodes_[task.id];
    n.dim = part.style.dim;
    n.near_bound = part.near_bound;
    n.far_bound = part.far_bound;
    n.depth = depth;
    const auto link = [&](const NodeTask& child, int* node, int* region,
                          size_t slot) {
      if (child.hi - child.lo == 1) {
        *region = by_key[0][child.lo];
      } else {
        *node = child.id;
        next[slot] = child;
      }
    };
    link(first, &n.left_node, &n.left_region, 2 * t);
    link(second, &n.right_node, &n.right_region, 2 * t + 1);
    NodeByteSize(part.polylines, &n, options);
    level_chains[t] = std::move(part.polylines);
  };

  // One level at a time, each lane claiming the level's tasks in turn
  // (the pool hands out lane indices, so a lane's scratch stays private).
  // A failing node stops only its own subtree; the build reports the
  // failing node with the lowest id, where a serial preorder walk would
  // have stopped: it visits ids in increasing order, and a node depends
  // only on its ancestors, all of lower id.
  int failed_id = std::numeric_limits<int>::max();
  for (int depth = 0; !level.empty(); ++depth) {
    next.assign(2 * level.size(), NodeTask{});
    level_chains.assign(level.size(), {});
    std::atomic<size_t> cursor{0};
    pool.ParallelFor(
        static_cast<int>(std::min<size_t>(lanes.size(), level.size())),
        [&](int lane) {
          for (size_t t = cursor++; t < level.size(); t = cursor++) {
            run_task(lanes[lane], depth, t);
          }
        });
    for (const Lane& lane : lanes) {
      failed_id = std::min(failed_id, lane.failed_id);
    }
    // Tasks in slot order are the tree's breadth-first broadcast order.
    // The layout takes the level's chains now, so the next level's lanes
    // reuse the memory of this level's partition output.
    for (const NodeTask& task : level) tree.bfs_order_.push_back(task.id);
    tree.layout_.AddLevel(
        std::span<const int>(tree.bfs_order_).last(level.size()),
        level_chains);
    level.clear();
    for (const NodeTask& task : next) {
      if (task.id >= 0 && task.id < failed_id) level.push_back(task);
    }
    tree.height_ = depth + 1;
  }
  if (failed_id != std::numeric_limits<int>::max()) {
    for (const Lane& lane : lanes) {
      if (lane.failed_id == failed_id) return lane.failed;
    }
  }
  tree.root_ = 0;
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
  tree.layout_.SetNodes(tree);
  if (timings != nullptr) timings->paging_seconds = seconds_since(paging_start);
  return tree;
}

}  // namespace dtree::core
