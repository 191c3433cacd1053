// Space-partition computation for the D-tree (Algorithm 1 of the paper).
//
// A partition splits a set of data regions into two complementary groups of
// (almost) equal cardinality and represents the division between them as a
// set of polylines: the extent (union boundary) of the first group, pruned
// of segments lying beyond the complementary group's extreme coordinate and
// truncated at that line.
//
// Terminology mapping (see DESIGN.md §4):
//  * kYDim — the paper's "y-dimensional" partition: an overall vertical
//    polyline separating LEFT (first child) from RIGHT, produced by sorting
//    regions on x-extents. `near_bound` = right_lmc (leftmost x of the
//    right subspace), `far_bound` = left_rmc (rightmost x of the left
//    subspace).
//  * kXDim — "x-dimensional": horizontal polyline separating UPPER (first
//    child) from LOWER. `near_bound` = lower_umc (uppermost y of the lower
//    subspace), `far_bound` = upper_lwc (lowest y of the upper subspace).
//
// Every style sorts the group by one of four bounding-box keys. The one
// implementation, ChooseBestSplit, reads a group already sorted by each
// key (SortedGroup): the D-tree build sorts the region ids once at the
// root and splits the sorted lists stably down the tree (DESIGN.md §11),
// while ComputePartition and ChooseBestPartition sort their argument and
// call the same core.

#ifndef DTREE_DTREE_PARTITION_H_
#define DTREE_DTREE_PARTITION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "geom/polygon.h"
#include "subdivision/extent.h"
#include "subdivision/subdivision.h"

namespace dtree::core {

enum class PartitionDim {
  kYDim,  ///< vertical-ish polyline; first child = lefthand subspace
  kXDim,  ///< horizontal-ish polyline; first child = upper subspace
};

enum class SortKey {
  kMinCoord,  ///< leftmost x (kYDim) / lowest y (kXDim)
  kMaxCoord,  ///< rightmost x / uppermost y
};

/// One of the 4 (even N) or 8 (odd N) candidate partition styles (§4.2).
struct PartitionStyle {
  PartitionDim dim = PartitionDim::kYDim;
  SortKey key = SortKey::kMaxCoord;
  /// When N is odd, whether the first group takes ceil(N/2) regions
  /// (ignored for even N).
  bool first_group_larger = false;
};

/// All candidate styles for a group of n regions.
std::vector<PartitionStyle> EnumerateStyles(int n);

/// One sort key per (dim, key) pair; the odd-N styles share them.
inline constexpr int kNumStyleKeys = 4;
inline int StyleKeyIndex(const PartitionStyle& style) {
  return 2 * static_cast<int>(style.dim) + static_cast<int>(style.key);
}

/// Sorts region ids by the style's key (a bounding-box coordinate), ties
/// to the lower id. The order is total, so a subsequence of a sorted list
/// is the sorted list of its ids.
void SortByStyleKey(const sub::Subdivision& sub, const PartitionStyle& style,
                    std::span<int> ids);

/// A region group as Algorithm 1 reads it. `order` is the group order,
/// the order in which InterProb sums areas; `by_key[StyleKeyIndex(s)]`
/// holds the same ids sorted by style s's key (SortByStyleKey).
struct SortedGroup {
  std::span<const int> order;
  std::array<std::span<const int>, kNumStyleKeys> by_key;
};

/// Buffers reused across the partitions of one subdivision; one scratch
/// serves one thread.
struct PartitionScratch {
  sub::ExtentScratch extent;
  /// Per-region marks for comparing two candidates' first groups as sets.
  std::vector<uint32_t> mark;
  uint32_t mark_round = 0;
  /// A region's ring and its band clips, for InterProb.
  std::vector<geom::Point> ring;
  geom::ClipBuffers clip;
};

/// Each region's polygon area, indexed by region id: the table
/// InterProb's tie-break reads.
std::vector<double> RegionAreas(const sub::Subdivision& sub);

/// A computed partition of a region group.
struct Partition {
  PartitionStyle style;
  /// First child's regions: lefthand (kYDim) or upper (kXDim) subspace.
  std::vector<int> first_group;
  std::vector<int> second_group;
  /// Pruned + truncated division polylines.
  std::vector<geom::Polyline> polylines;
  /// Shortcut bounds; see file comment. For kYDim: a query with
  /// p.x <= near_bound goes to the first group, p.x >= far_bound to the
  /// second; for kXDim: p.y >= near_bound first, p.y <= far_bound second.
  double near_bound = 0.0;
  double far_bound = 0.0;
  /// Partition size counted in scalar coordinates (a vertex = 2; closed
  /// polylines repeat their first vertex on the air).
  int num_scalar_coords = 0;
};

/// Runs Algorithm 1 for one style over `regions` (>= 2 region ids).
///
/// `access_weights` (indexed by region id, empty = uniform) switches the
/// split point from equal cardinality to equal access-probability mass —
/// the skew-aware variant inspired by imbalanced broadcast indexing
/// (Chen, Yu & Wu, ICDCS'97, the paper's reference [6]): frequently
/// queried regions end up on shorter root-to-leaf paths, trading the
/// strict height balance of §4.1 property 3 for lower expected tuning
/// time. With weights supplied, `style.first_group_larger` is ignored
/// (the mass split determines the cut).
Result<Partition> ComputePartition(
    const sub::Subdivision& sub, const std::vector<int>& regions,
    const PartitionStyle& style,
    const std::vector<double>& access_weights = {});

/// Probability proxy that a uniform query over the group's area lands in
/// the interlocking band D2 (used for tie-breaking, §4.2/§4.4): the
/// regions' area inside the band over their total area, both summed in
/// the order of `regions`.
double InterProb(const sub::Subdivision& sub, const std::vector<int>& regions,
                 const Partition& partition);

/// Evaluates every style and picks the smallest partition (ties broken by
/// inter-prob when `interprob_tiebreak`, else by enumeration order).
Result<Partition> ChooseBestPartition(
    const sub::Subdivision& sub, const std::vector<int>& regions,
    bool interprob_tiebreak, const std::vector<double>& access_weights = {});

/// ChooseBestPartition over a group that is already sorted by every key,
/// with the same per-style split as ComputePartition. The returned
/// partition's first_group and second_group are left empty: the chosen
/// style's sorted list splits at `*low_count`, its first `*low_count` ids
/// being the left (kYDim) or lower (kXDim) group. The D-tree build calls
/// this with slices of four lists sorted once at the root.
///
/// `region_area` is RegionAreas(sub), read only on an inter-prob tie (it
/// may be empty when `interprob_tiebreak` is false). A style whose first
/// group equals, as a set, an earlier style's of the same dim and size is
/// skipped: it has the same extent, bounds and inter-prob, so the earlier
/// one wins every tie with it.
Result<Partition> ChooseBestSplit(const sub::Subdivision& sub,
                                  const SortedGroup& group,
                                  bool interprob_tiebreak,
                                  const std::vector<double>& access_weights,
                                  std::span<const double> region_area,
                                  PartitionScratch* scratch, int* low_count);

/// Query-side test: does point p belong to the partition's first group's
/// subspace? (D1/D3 shortcuts plus the D2 ray-crossing parity test of
/// Algorithm 2.) When `via_shortcut` is non-null it is set to true when
/// the D1/D3 coordinate comparison decided without ray casting — for
/// multi-packet nodes that is the paper's early-termination case (§4.4):
/// the client resolves the child pointer from the node's first packet.
/// The D-tree's probe runs the same test over its flat layout
/// (DTreeArena).
bool PointInFirstSubspace(const Partition& partition, const geom::Point& p,
                          bool* via_shortcut = nullptr);

}  // namespace dtree::core

#endif  // DTREE_DTREE_PARTITION_H_
