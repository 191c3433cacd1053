#include "subdivision/extent.h"

#include <algorithm>
#include <string>

namespace dtree::sub {

Result<std::vector<geom::Polyline>> ComputeExtent(
    const Subdivision& sub, std::span<const int> region_ids,
    ExtentScratch* scratch) {
  if (region_ids.empty()) {
    return Status::InvalidArgument("extent of an empty region group");
  }

  // 1. Mark the group.
  std::vector<uint32_t>& stamp = scratch->stamp;
  if (stamp.size() < static_cast<size_t>(sub.NumRegions())) {
    stamp.resize(sub.NumRegions(), 0);
  }
  if (++scratch->round == 0) {  // wrapped: forget every old mark
    std::fill(stamp.begin(), stamp.end(), 0);
    scratch->round = 1;
  }
  const uint32_t round = scratch->round;
  for (int r : region_ids) {
    if (r < 0 || r >= sub.NumRegions()) {
      return Status::InvalidArgument("region id out of range");
    }
    stamp[r] = round;
  }

  // 2. Keep each member ring edge whose twin is not a member: the borders
  // interior to the group drop out in pairs.
  std::vector<std::pair<int, int>>& edges = scratch->edges;
  edges.clear();
  for (int r : region_ids) {
    const std::vector<int>& ring = sub.Ring(r);
    const std::span<const int> twins = sub.EdgeTwins(r);
    for (size_t i = 0; i < ring.size(); ++i) {
      const int twin = twins[i];
      if (twin == Subdivision::kUnstitchedEdge) {
        return Status::Internal("duplicate directed edge in region group");
      }
      if (twin >= 0 && stamp[twin] == round) continue;
      edges.emplace_back(ring[i], ring[(i + 1) % ring.size()]);
    }
  }
  if (edges.empty()) {
    return Status::Internal("region group has no boundary");
  }

  // 3. Sort by (from, to): a vertex's outgoing edges become one run, in
  // ascending order of their next vertex. A repeated id in the group
  // keeps a ring twice.
  std::sort(edges.begin(), edges.end());
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
    return Status::Internal("duplicate directed edge in region group");
  }

  // 4. Chain into loops. A used edge's `to` becomes -1; `from` stays, so
  // the runs stay sorted for the search below.
  constexpr int kUsed = -1;
  std::vector<geom::Polyline> loops;
  const std::vector<geom::Point>& pts = sub.vertices();
  size_t next_start = 0;
  size_t unused = edges.size();
  for (;;) {
    while (next_start < edges.size() && edges[next_start].second == kUsed) {
      ++next_start;
    }
    if (next_start == edges.size()) break;
    const int start = edges[next_start].first;
    int cur = start;
    geom::Polyline loop;
    loop.closed = true;
    loop.pts.reserve(unused);  // exact for the common single loop
    do {
      auto it = std::lower_bound(
          edges.begin(), edges.end(), cur,
          [](const std::pair<int, int>& e, int v) { return e.first < v; });
      while (it != edges.end() && it->first == cur && it->second == kUsed) {
        ++it;
      }
      if (it == edges.end() || it->first != cur) {
        return Status::Internal(
            "extent boundary is not a closed chain (dangling at vertex " +
            std::to_string(cur) + ")");
      }
      loop.pts.push_back(pts[cur]);
      cur = std::exchange(it->second, kUsed);
    } while (cur != start);
    if (loop.pts.size() < 3) {
      return Status::Internal("degenerate extent loop");
    }
    unused -= loop.pts.size();
    loops.push_back(std::move(loop));
  }
  return loops;
}

Result<std::vector<geom::Polyline>> ComputeExtent(
    const Subdivision& sub, const std::vector<int>& region_ids) {
  ExtentScratch scratch;
  return ComputeExtent(sub, region_ids, &scratch);
}

}  // namespace dtree::sub
