// Union-boundary ("extent") extraction for groups of regions.
//
// The D-tree partition algorithm (Algorithm 1 of the paper) needs the
// extent of a subspace: the boundary of the union of its member regions,
// possibly several closed loops (including hole loops when the group
// surrounds a region of the complementary group).

#ifndef DTREE_SUBDIVISION_EXTENT_H_
#define DTREE_SUBDIVISION_EXTENT_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/polygon.h"
#include "subdivision/subdivision.h"

namespace dtree::sub {

/// Buffers ComputeExtent reuses across calls: a per-region stamp that
/// marks the current group, and the kept directed edges. A caller that
/// computes many extents (the D-tree build) owns one and passes it to
/// every call; one scratch serves one thread.
struct ExtentScratch {
  std::vector<uint32_t> stamp;
  uint32_t round = 0;
  std::vector<std::pair<int, int>> edges;
};

/// Computes the union boundary of `region_ids` within `sub` as a set of
/// closed polylines.
///
/// A member's ring edge is on the boundary when the region across it (the
/// subdivision's edge twin) is not a member; those edges chain into closed
/// loops in a canonical order that depends only on the group's set of
/// regions, never on hashing or on the order of `region_ids`: each loop
/// starts at its lowest unused vertex id, a vertex with several outgoing
/// boundary edges (a pinch, where the group touches itself) continues to
/// its lowest unused next vertex, and loops come out in ascending order of
/// their start.
///
/// Fails with InvalidArgument for an empty group or an id out of range,
/// and with Internal when the group has no boundary, a chain dangles, a
/// loop has fewer than three vertices, or the group holds an edge the
/// subdivision marks unstitched (a repeated directed edge).
Result<std::vector<geom::Polyline>> ComputeExtent(
    const Subdivision& sub, std::span<const int> region_ids,
    ExtentScratch* scratch);

/// Same, with a scratch of its own.
Result<std::vector<geom::Polyline>> ComputeExtent(
    const Subdivision& sub, const std::vector<int>& region_ids);

}  // namespace dtree::sub

#endif  // DTREE_SUBDIVISION_EXTENT_H_
