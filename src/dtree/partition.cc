#include "dtree/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "geom/predicates.h"
#include "subdivision/extent.h"

namespace dtree::core {

namespace {

using geom::Point;
using geom::Polyline;

constexpr double kLineTol = 1e-9;

/// Sort coordinate of a region for the given style.
double StyleKey(const sub::Subdivision& sub, int region,
                const PartitionStyle& style) {
  const geom::BBox& b = sub.RegionBounds(region);
  if (style.dim == PartitionDim::kYDim) {
    return style.key == SortKey::kMinCoord ? b.min_x : b.max_x;
  }
  return style.key == SortKey::kMinCoord ? b.min_y : b.max_y;
}

/// Clips segment [a, b] to the kept half-space of the partition: x >=
/// bound for kYDim, y <= bound for kXDim. Returns false when nothing is
/// kept. Endpoints within kLineTol of the line count as kept.
bool ClipSegmentToKeptSide(PartitionDim dim, double bound, Point a, Point b,
                           Point* out_a, Point* out_b) {
  auto coord = [&](const Point& p) {
    return dim == PartitionDim::kYDim ? p.x : p.y;
  };
  // Signed "inside" amount: >= 0 means kept.
  auto inside = [&](const Point& p) {
    return dim == PartitionDim::kYDim ? coord(p) - bound : bound - coord(p);
  };
  double ia = inside(a);
  double ib = inside(b);
  if (ia < -kLineTol && ib < -kLineTol) return false;  // fully pruned
  if (ia >= -kLineTol && ib >= -kLineTol) {            // fully kept
    *out_a = a;
    *out_b = b;
    return true;
  }
  // Crossing: truncate at the line (Algorithm 1 lines 9-15).
  const double t = ia / (ia - ib);
  Point cut{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
  if (dim == PartitionDim::kYDim) {
    cut.x = bound;  // pin exactly onto the line
  } else {
    cut.y = bound;
  }
  if (ia >= -kLineTol) {
    *out_a = a;
    *out_b = cut;
  } else {
    *out_a = cut;
    *out_b = b;
  }
  // An edge leaving the kept side exactly at the line clips to a point;
  // treat it as pruned.
  return !geom::NearlyEqual(*out_a, *out_b, geom::kGeomEps);
}

/// Counts the scalar coordinates a polyline occupies on the air (closed
/// polylines repeat their first vertex).
int ScalarCoords(const Polyline& pl) {
  const int v = static_cast<int>(pl.pts.size()) + (pl.closed ? 1 : 0);
  return 2 * v;
}

/// Splits/keeps the extent loops against the pruning line and chains the
/// surviving pieces into maximal polylines.
std::vector<Polyline> PruneExtent(const std::vector<Polyline>& loops,
                                  PartitionDim dim, double bound) {
  std::vector<Polyline> out;
  for (const Polyline& loop : loops) {
    DTREE_CHECK(loop.closed);
    std::vector<Polyline> chains;
    Polyline cur;
    bool cur_open_started_at_cut = false;
    const size_t nseg = loop.NumSegments();
    for (size_t i = 0; i < nseg; ++i) {
      Point a, b, ka, kb;
      loop.Segment(i, &a, &b);
      if (!ClipSegmentToKeptSide(dim, bound, a, b, &ka, &kb)) {
        // Segment fully pruned: close the running chain.
        if (cur.pts.size() >= 2) chains.push_back(std::move(cur));
        cur = Polyline{};
        continue;
      }
      if (cur.pts.empty()) {
        cur.pts.push_back(ka);
        cur.pts.push_back(kb);
        cur_open_started_at_cut = !geom::NearlyEqual(ka, a, geom::kGeomEps);
        (void)cur_open_started_at_cut;
      } else if (geom::NearlyEqual(cur.pts.back(), ka, geom::kMergeEps)) {
        cur.pts.push_back(kb);
      } else {
        // Discontinuity (segment was truncated at its start).
        if (cur.pts.size() >= 2) chains.push_back(std::move(cur));
        cur = Polyline{};
        cur.pts.push_back(ka);
        cur.pts.push_back(kb);
      }
    }
    if (cur.pts.size() >= 2) chains.push_back(std::move(cur));
    if (chains.empty()) continue;
    // The walk started mid-loop; if the loop survived in one piece wrap
    // first/last chains together, or mark fully closed.
    if (chains.size() == 1 &&
        geom::NearlyEqual(chains[0].pts.front(), chains[0].pts.back(),
                          geom::kMergeEps)) {
      chains[0].pts.pop_back();
      chains[0].closed = true;
    } else if (chains.size() >= 2 &&
               geom::NearlyEqual(chains.back().pts.back(),
                                 chains.front().pts.front(),
                                 geom::kMergeEps)) {
      Polyline& last = chains.back();
      last.pts.insert(last.pts.end(), chains.front().pts.begin() + 1,
                      chains.front().pts.end());
      chains.front() = std::move(last);
      chains.pop_back();
    }
    for (Polyline& c : chains) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

std::vector<PartitionStyle> EnumerateStyles(int n) {
  std::vector<PartitionStyle> styles;
  const bool odd = (n % 2) != 0;
  for (PartitionDim dim : {PartitionDim::kYDim, PartitionDim::kXDim}) {
    for (SortKey key : {SortKey::kMaxCoord, SortKey::kMinCoord}) {
      if (odd) {
        styles.push_back({dim, key, false});
        styles.push_back({dim, key, true});
      } else {
        styles.push_back({dim, key, false});
      }
    }
  }
  return styles;
}

void SortByStyleKey(const sub::Subdivision& sub, const PartitionStyle& style,
                    std::span<int> ids) {
  std::sort(ids.begin(), ids.end(), [&](int a, int b) {
    const double ka = StyleKey(sub, a, style);
    const double kb = StyleKey(sub, b, style);
    if (ka != kb) return ka < kb;
    return a < b;
  });
}

namespace {

/// Phase 1 of Algorithm 1 (lines 1-3) for one style over `sorted`, the
/// group sorted by the style's key: how many of the sorted ids form the
/// low side.
Result<int> SplitPoint(std::span<const int> sorted,
                       const PartitionStyle& style,
                       const std::vector<double>& access_weights) {
  const int n = static_cast<int>(sorted.size());
  if (n < 2) {
    return Status::InvalidArgument("partitioning needs at least two regions");
  }
  int k;
  if (access_weights.empty()) {
    k = style.first_group_larger ? (n + 1) / 2 : n / 2;
  } else {
    // Skew-aware split: cut where the cumulative access mass is closest
    // to half, so both subtrees answer about half the query load.
    double total = 0.0;
    for (int r : sorted) {
      if (r >= static_cast<int>(access_weights.size()) ||
          access_weights[r] < 0.0) {
        return Status::InvalidArgument("invalid access weight for region " +
                                       std::to_string(r));
      }
      total += access_weights[r];
    }
    if (total <= 0.0) {
      return Status::InvalidArgument("access weights sum to zero");
    }
    k = 1;
    double best_diff = std::numeric_limits<double>::infinity();
    double prefix = 0.0;
    for (int i = 0; i < n - 1; ++i) {
      prefix += access_weights[sorted[i]];
      const double diff = std::abs(prefix - total / 2.0);
      if (diff < best_diff) {
        best_diff = diff;
        k = i + 1;
      }
    }
  }
  DTREE_CHECK(k >= 1 && k < n);
  return k;
}

/// The first child's ids when `sorted` splits at `k`. Ascending keys: the
/// first k regions form the LEFT (first) group of a kYDim split, and the
/// LOWER (second) group of a kXDim split, whose first child is the paper's
/// UPPER subspace.
std::span<const int> FirstGroup(std::span<const int> sorted, PartitionDim dim,
                                int k) {
  return dim == PartitionDim::kYDim ? sorted.first(k) : sorted.subspan(k);
}

/// The rest of Algorithm 1 for one style split at `k`: the shortcut bounds
/// and the first group's extent pruned and truncated. Leaves the
/// partition's groups empty.
Result<Partition> SplitAt(const sub::Subdivision& sub,
                          std::span<const int> sorted,
                          const PartitionStyle& style, int k,
                          sub::ExtentScratch* scratch) {
  const std::span<const int> low = sorted.first(k);
  const std::span<const int> high = sorted.subspan(k);

  Partition part;
  part.style = style;
  // Shortcut bounds from the complementary group's bounding boxes.
  if (style.dim == PartitionDim::kYDim) {
    double right_lmc = std::numeric_limits<double>::infinity();
    for (int r : high) {
      right_lmc = std::min(right_lmc, sub.RegionBounds(r).min_x);
    }
    double left_rmc = -std::numeric_limits<double>::infinity();
    for (int r : low) {
      left_rmc = std::max(left_rmc, sub.RegionBounds(r).max_x);
    }
    part.near_bound = right_lmc;
    part.far_bound = left_rmc;
  } else {
    double lower_umc = -std::numeric_limits<double>::infinity();
    for (int r : low) {
      lower_umc = std::max(lower_umc, sub.RegionBounds(r).max_y);
    }
    double upper_lwc = std::numeric_limits<double>::infinity();
    for (int r : high) {
      upper_lwc = std::min(upper_lwc, sub.RegionBounds(r).min_y);
    }
    part.near_bound = lower_umc;
    part.far_bound = upper_lwc;
  }

  // Phase 2 (lines 4-16): extent of the first group, pruned + truncated.
  Result<std::vector<Polyline>> extent_r =
      sub::ComputeExtent(sub, FirstGroup(sorted, style.dim, k), scratch);
  if (!extent_r.ok()) return extent_r.status();
  part.polylines = PruneExtent(extent_r.value(), style.dim, part.near_bound);
  // An empty partition is legal: when the two groups are not even adjacent
  // (possible for sort-based grouping of a disconnected subtree), the
  // whole extent lies beyond the pruning line and the shortcut bounds
  // alone decide every query that can reach this node.
  part.num_scalar_coords = 0;
  for (const Polyline& pl : part.polylines) {
    part.num_scalar_coords += ScalarCoords(pl);
  }
  return part;
}

/// Whether two groups of one size, of regions of `sub`, hold the same ids.
bool SameSet(const sub::Subdivision& sub, std::span<const int> a,
             std::span<const int> b, PartitionScratch* scratch) {
  DTREE_CHECK(a.size() == b.size());
  std::vector<uint32_t>& mark = scratch->mark;
  if (mark.size() < static_cast<size_t>(sub.NumRegions())) {
    mark.resize(sub.NumRegions(), 0);
  }
  if (++scratch->mark_round == 0) {  // wrapped: forget every old mark
    std::fill(mark.begin(), mark.end(), 0);
    scratch->mark_round = 1;
  }
  const uint32_t round = scratch->mark_round;
  for (int r : a) mark[r] = round;
  for (int r : b) {
    if (mark[r] != round) return false;
  }
  return true;
}

/// Fills the groups of a partition that split `sorted` at `low_count`.
void AssignGroups(std::span<const int> sorted, int low_count,
                  Partition* part) {
  const auto mid = sorted.begin() + low_count;
  std::vector<int> low(sorted.begin(), mid);
  std::vector<int> high(mid, sorted.end());
  if (part->style.dim == PartitionDim::kYDim) {
    part->first_group = std::move(low);
    part->second_group = std::move(high);
  } else {
    part->first_group = std::move(high);
    part->second_group = std::move(low);
  }
}

/// InterProb given the group's total area. A region whose bounding box
/// lies more than kGeomEps outside the band is skipped: every vertex is
/// then beyond the clipper's 1e-12 on-line tolerance, so its clipped area
/// is exactly +0.0 and skipping it leaves the sum bit for bit unchanged.
double InterProbGivenTotal(const sub::Subdivision& sub,
                           std::span<const int> regions, double total_area,
                           const Partition& partition,
                           PartitionScratch* scratch) {
  const bool ydim = partition.style.dim == PartitionDim::kYDim;
  // The band is lo <= x <= hi (kYDim) or lo <= y <= hi (kXDim).
  const double lo = ydim ? partition.near_bound : partition.far_bound;
  const double hi = ydim ? partition.far_bound : partition.near_bound;
  std::vector<Point>& ring = scratch->ring;
  double band_area = 0.0;
  for (int r : regions) {
    const geom::BBox& b = sub.RegionBounds(r);
    const double min = ydim ? b.min_x : b.min_y;
    const double max = ydim ? b.max_x : b.max_y;
    if (max < lo - geom::kGeomEps || min > hi + geom::kGeomEps) continue;
    ring.clear();
    for (int v : sub.Ring(r)) ring.push_back(sub.vertices()[v]);
    band_area += ydim ? geom::AreaInVerticalBand(ring, lo, hi, &scratch->clip)
                      : geom::AreaInHorizontalBand(ring, lo, hi,
                                                   &scratch->clip);
  }
  if (total_area <= 0.0) return 0.0;
  return band_area / total_area;
}

}  // namespace

std::vector<double> RegionAreas(const sub::Subdivision& sub) {
  std::vector<double> area(sub.NumRegions());
  for (int r = 0; r < sub.NumRegions(); ++r) {
    area[r] = sub.RegionPolygon(r).Area();
  }
  return area;
}

Result<Partition> ComputePartition(const sub::Subdivision& sub,
                                   const std::vector<int>& regions,
                                   const PartitionStyle& style,
                                   const std::vector<double>& access_weights) {
  std::vector<int> sorted = regions;
  SortByStyleKey(sub, style, sorted);
  Result<int> k = SplitPoint(sorted, style, access_weights);
  if (!k.ok()) return k.status();
  sub::ExtentScratch scratch;
  Result<Partition> part = SplitAt(sub, sorted, style, k.value(), &scratch);
  if (part.ok()) AssignGroups(sorted, k.value(), &part.value());
  return part;
}

double InterProb(const sub::Subdivision& sub, const std::vector<int>& regions,
                 const Partition& partition) {
  double total_area = 0.0;
  for (int r : regions) total_area += sub.RegionPolygon(r).Area();
  PartitionScratch scratch;
  return InterProbGivenTotal(sub, regions, total_area, partition, &scratch);
}

Result<Partition> ChooseBestPartition(const sub::Subdivision& sub,
                                      const std::vector<int>& regions,
                                      bool interprob_tiebreak,
                                      const std::vector<double>& access_weights) {
  std::array<std::vector<int>, kNumStyleKeys> sorted;
  SortedGroup group;
  group.order = regions;
  for (const PartitionStyle& style : EnumerateStyles(2)) {  // one per key
    std::vector<int>& ids = sorted[StyleKeyIndex(style)];
    ids = regions;
    SortByStyleKey(sub, style, ids);
    group.by_key[StyleKeyIndex(style)] = ids;
  }
  const std::vector<double> region_area =
      interprob_tiebreak ? RegionAreas(sub) : std::vector<double>();
  PartitionScratch scratch;
  int low_count = 0;
  Result<Partition> part =
      ChooseBestSplit(sub, group, interprob_tiebreak, access_weights,
                      region_area, &scratch, &low_count);
  if (part.ok()) {
    AssignGroups(group.by_key[StyleKeyIndex(part.value().style)], low_count,
                 &part.value());
  }
  return part;
}

Result<Partition> ChooseBestSplit(const sub::Subdivision& sub,
                                  const SortedGroup& group,
                                  bool interprob_tiebreak,
                                  const std::vector<double>& access_weights,
                                  std::span<const double> region_area,
                                  PartitionScratch* scratch, int* low_count) {
  std::vector<Partition> candidates;
  std::vector<int> splits;
  // Weighted splits pick their own cut, so the even/odd group-size styles
  // collapse; enumerate as if N were even to avoid duplicate work.
  const int n = static_cast<int>(group.order.size());
  const int style_n = access_weights.empty() ? n : 2 * ((n + 1) / 2);
  for (const PartitionStyle& style : EnumerateStyles(style_n)) {
    const std::span<const int> sorted = group.by_key[StyleKeyIndex(style)];
    Result<int> k = SplitPoint(sorted, style, access_weights);
    if (!k.ok()) return k.status();
    const std::span<const int> first = FirstGroup(sorted, style.dim, k.value());
    bool repeat = false;
    for (size_t j = 0; j < candidates.size() && !repeat; ++j) {
      const PartitionStyle& earlier = candidates[j].style;
      repeat = earlier.dim == style.dim && splits[j] == k.value() &&
               SameSet(sub,
                       FirstGroup(group.by_key[StyleKeyIndex(earlier)],
                                  earlier.dim, splits[j]),
                       first, scratch);
    }
    if (repeat) continue;
    Result<Partition> p =
        SplitAt(sub, sorted, style, k.value(), &scratch->extent);
    if (!p.ok()) return p.status();
    candidates.push_back(std::move(p).value());
    splits.push_back(k.value());
  }
  DTREE_CHECK(!candidates.empty());

  int best = 0;
  int tied = 1;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].num_scalar_coords <
        candidates[best].num_scalar_coords) {
      best = static_cast<int>(i);
      tied = 1;
    } else if (candidates[i].num_scalar_coords ==
               candidates[best].num_scalar_coords) {
      ++tied;
    }
  }
  // The first smallest partition with the lowest inter-prob; a lone
  // smallest one wins without computing any.
  if (interprob_tiebreak && tied > 1) {
    DTREE_CHECK(region_area.size() == static_cast<size_t>(sub.NumRegions()));
    double total_area = 0.0;
    for (int r : group.order) total_area += region_area[r];
    double best_prob = -1.0;
    const int min_coords = candidates[best].num_scalar_coords;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].num_scalar_coords != min_coords) continue;
      const double prob = InterProbGivenTotal(sub, group.order, total_area,
                                              candidates[i], scratch);
      if (best_prob < 0.0 || prob < best_prob) {
        best_prob = prob;
        best = static_cast<int>(i);
      }
    }
  }
  *low_count = splits[best];
  return std::move(candidates[best]);
}

bool PointInFirstSubspace(const Partition& partition, const geom::Point& p,
                          bool* via_shortcut) {
  if (via_shortcut != nullptr) *via_shortcut = true;
  int crossings = 0;
  if (partition.style.dim == PartitionDim::kYDim) {
    if (p.x <= partition.near_bound) return true;   // D1: all-left
    if (p.x >= partition.far_bound) return false;   // D3: all-right
    if (via_shortcut != nullptr) *via_shortcut = false;
    for (const Polyline& pl : partition.polylines) {
      const size_t nseg = pl.NumSegments();
      for (size_t i = 0; i < nseg; ++i) {
        Point a, b;
        pl.Segment(i, &a, &b);
        if (geom::RayRightCrossesSegment(p, a, b)) ++crossings;
      }
    }
  } else {
    if (p.y >= partition.near_bound) return true;   // all-upper
    if (p.y <= partition.far_bound) return false;   // all-lower
    if (via_shortcut != nullptr) *via_shortcut = false;
    for (const Polyline& pl : partition.polylines) {
      const size_t nseg = pl.NumSegments();
      for (size_t i = 0; i < nseg; ++i) {
        Point a, b;
        pl.Segment(i, &a, &b);
        if (geom::RayDownCrossesSegment(p, a, b)) ++crossings;
      }
    }
  }
  return (crossings % 2) == 1;
}

}  // namespace dtree::core
