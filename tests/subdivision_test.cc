#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "geom/predicates.h"
#include "subdivision/extent.h"
#include "subdivision/subdivision.h"
#include "subdivision/triangulate.h"
#include "subdivision/voronoi.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::sub {
namespace {

using geom::BBox;
using geom::Point;
using geom::Polygon;

/// 2x2 grid of unit squares over [0,2]^2.
std::vector<Polygon> GridCells() {
  std::vector<Polygon> cells;
  for (int gx = 0; gx < 2; ++gx) {
    for (int gy = 0; gy < 2; ++gy) {
      const double x = gx, y = gy;
      cells.push_back(Polygon(
          {{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}}));
    }
  }
  return cells;
}

TEST(SubdivisionTest, FromPolygonsGrid) {
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells());
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  const Subdivision& sub = sub_r.value();
  EXPECT_EQ(sub.NumRegions(), 4);
  // Shared corners snap to one vertex: 3x3 grid of vertices.
  EXPECT_EQ(sub.vertices().size(), 9u);
  EXPECT_OK(sub.Validate());
}

TEST(SubdivisionTest, RejectsEmptyAndDegenerate) {
  EXPECT_FALSE(Subdivision::FromPolygons(BBox{0, 0, 1, 1}, {}).ok());
  std::vector<Polygon> degenerate{Polygon({{0, 0}, {1, 0}})};
  EXPECT_FALSE(
      Subdivision::FromPolygons(BBox{0, 0, 1, 1}, degenerate).ok());
  // Zero-area service area.
  EXPECT_FALSE(Subdivision::FromPolygons(BBox{0, 0, 0, 1}, GridCells()).ok());
  // A square beside a polygon with a vertex the snap grid has no cell
  // for: not finite, or so far out that the cell index overflows.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Polygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 1e300}) {
    const std::vector<Polygon> cells{
        square, Polygon({{1, 0}, {2, 0}, {bad, 1}, {1, 1}})};
    EXPECT_EQ(Subdivision::FromPolygons(BBox{0, 0, 2, 1}, cells)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // A service area that is not finite.
  for (const BBox& area : {BBox{0, 0, kInf, 2}, BBox{-kInf, 0, 2, 2},
                           BBox{0, std::nan(""), 2, 2}}) {
    EXPECT_EQ(
        Subdivision::FromPolygons(area, GridCells()).status().code(),
        StatusCode::kInvalidArgument);
  }
}

TEST(SubdivisionTest, SnapsNearbyVertices) {
  // Two half-squares whose shared edge endpoints differ by 1e-8.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {1.00000001, 0}, {1, 1}, {0, 1}}));
  cells.push_back(Polygon({{1, 0}, {2, 0}, {2, 1}, {1.00000001, 1}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 1}, cells);
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  EXPECT_OK(sub_r.value().Validate());
  EXPECT_EQ(sub_r.value().vertices().size(), 6u);
}

TEST(SubdivisionTest, SplitsTJunction) {
  // Left cell is the full-height rectangle; the right side is split into
  // two cells whose shared vertex lies mid-edge on the left cell's border.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {1, 0}, {1, 2}, {0, 2}}));
  cells.push_back(Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}}));
  cells.push_back(Polygon({{1, 1}, {2, 1}, {2, 2}, {1, 2}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, cells);
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  const Subdivision& sub = sub_r.value();
  EXPECT_OK(sub.Validate());
  // The left cell's right edge must have been split at (1,1): 5 vertices.
  EXPECT_EQ(sub.Ring(0).size(), 5u);
}

TEST(SubdivisionTest, ValidateDetectsOverlap) {
  // Two unit squares overlapping by half: the area sum exceeds the
  // service area and the shared border never matches.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  cells.push_back(Polygon({{0.5, 0}, {1.5, 0}, {1.5, 1}, {0.5, 1}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 1.5, 1}, cells);
  ASSERT_TRUE(sub_r.ok());  // construction is lenient...
  EXPECT_FALSE(sub_r.value().Validate().ok());  // ...validation is not
}

TEST(SubdivisionTest, ValidateDetectsGap) {
  // Two squares covering only 2/3 of the declared service area.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}}));
  cells.push_back(Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 3, 1}, cells);
  ASSERT_TRUE(sub_r.ok());
  EXPECT_FALSE(sub_r.value().Validate().ok());
}

TEST(SubdivisionTest, ValidateDetectsEscape) {
  // A region poking outside the service area.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {2, 0}, {2, 1}, {0, 1}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 1, 1}, cells);
  ASSERT_TRUE(sub_r.ok());
  EXPECT_FALSE(sub_r.value().Validate().ok());
}

TEST(SubdivisionTest, ValidateReportsTheFirstDefectInRegionOrder) {
  // Each cell bulges 5e-4 across x = 1, so each has two unmatched
  // interior edges, and the areas still sum to within 0.1%. Region 0's
  // edge from (1, 0) (vertex 1) to (1.0005, 0.5) (vertex 2) comes first.
  std::vector<Polygon> cells;
  cells.push_back(Polygon({{0, 0}, {1, 0}, {1.0005, 0.5}, {1, 1}, {0, 1}}));
  cells.push_back(Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}, {0.9995, 0.5}}));
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 1}, cells);
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  const Status st = sub_r.value().Validate();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "unmatched interior edge between vertices 1 and 2");
}

TEST(SubdivisionTest, SpikeAndAThirdCopyAreAllUnstitched) {
  // Region 0 runs out from (0, 1) to (1, 1) and back, so its ring holds
  // that segment both ways, and a thin triangle holds it a third time.
  // All three copies are unstitched, whichever pair was seen first.
  auto sub_r = Subdivision::FromPolygons(
      BBox{0, 0, 2, 2},
      {Polygon({{0, 0}, {2, 0}, {2, 2}, {0, 2}, {0, 1}, {1, 1}, {0, 1}}),
       Polygon({{0, 1}, {1, 1}, {0.5, 1.001}})});
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  const Subdivision& sub = sub_r.value();
  ASSERT_EQ(sub.Ring(0), (std::vector<int>{0, 1, 2, 3, 4, 5, 4}));
  ASSERT_EQ(sub.Ring(1), (std::vector<int>{4, 5, 6}));
  const std::vector<int> twins0(sub.EdgeTwins(0).begin(),
                                sub.EdgeTwins(0).end());
  const std::vector<int> twins1(sub.EdgeTwins(1).begin(),
                                sub.EdgeTwins(1).end());
  constexpr int B = Subdivision::kBorderEdge;
  constexpr int U = Subdivision::kUnstitchedEdge;
  EXPECT_EQ(twins0, (std::vector<int>{B, B, B, B, U, U, B}));
  EXPECT_EQ(twins1, (std::vector<int>{U, B, B}));
  EXPECT_EQ(sub.Validate().message(), "duplicate directed edge");
  EXPECT_EQ(ComputeExtent(sub, {0}).status().code(), StatusCode::kInternal);
}

TEST(PointLocatorTest, GridLookup) {
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells());
  ASSERT_TRUE(sub_r.ok());
  const Subdivision& sub = sub_r.value();
  PointLocator loc(sub);
  EXPECT_EQ(loc.Locate({0.5, 0.5}), 0);  // (gx=0, gy=0)
  EXPECT_EQ(loc.Locate({0.5, 1.5}), 1);
  EXPECT_EQ(loc.Locate({1.5, 0.5}), 2);
  EXPECT_EQ(loc.Locate({1.5, 1.5}), 3);
  // Outside the area resolves to the nearest region, not -1.
  EXPECT_EQ(loc.Locate({-1.0, 0.5}), 0);
}

TEST(VoronoiTest, TwoSites) {
  auto cells_r = VoronoiCells({{250, 500}, {750, 500}}, BBox{0, 0, 1000, 1000});
  ASSERT_TRUE(cells_r.ok()) << cells_r.status().ToString();
  const auto& cells = cells_r.value();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NEAR(cells[0].Area(), 500000.0, 1.0);
  EXPECT_NEAR(cells[1].Area(), 500000.0, 1.0);
  EXPECT_TRUE(cells[0].Contains({100, 500}));
  EXPECT_FALSE(cells[0].Contains({900, 500}));
}

TEST(VoronoiTest, RejectsBadInput) {
  const BBox area{0, 0, 10, 10};
  EXPECT_FALSE(VoronoiCells({}, area).ok());
  EXPECT_FALSE(VoronoiCells({{5, 5}, {50, 5}}, area).ok());  // outside
  EXPECT_FALSE(VoronoiCells({{5, 5}, {5, 5}}, area).ok());   // duplicate
}

TEST(VoronoiTest, RejectsDuplicateAndNearCoincidentSites) {
  const BBox area{0, 0, 10, 10};
  // Exact duplicates anywhere in the list.
  auto dup = VoronoiCells({{1, 1}, {5, 5}, {1, 1}}, area);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  // Near-coincident: separated by more than kMergeEps (the old in-loop
  // duplicate check let this through and carved a sliver cell thinner than
  // the stitcher's snap radius) but less than kMinSiteSeparation.
  auto sliver = VoronoiCells({{5, 5}, {5 + 2e-6, 5}}, area);
  ASSERT_FALSE(sliver.ok());
  EXPECT_EQ(sliver.status().code(), StatusCode::kInvalidArgument);
  // Separation comfortably above the threshold stays accepted.
  auto ok = VoronoiCells({{5, 5}, {5.001, 5}}, area);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().size(), 2u);
}

TEST(VoronoiTest, CollinearSitesTileTheArea) {
  const BBox area{0, 0, 1000, 1000};
  // Horizontal line of sites: all bisectors are parallel, producing stripe
  // cells — a layout with no generic-position slack anywhere.
  std::vector<Point> horizontal;
  for (int i = 0; i < 8; ++i) horizontal.push_back({100.0 + 100.0 * i, 500.0});
  // Diagonal line of sites: bisectors are parallel but axis-unaligned.
  std::vector<Point> diagonal;
  for (int i = 0; i < 8; ++i) {
    diagonal.push_back({100.0 + 100.0 * i, 100.0 + 100.0 * i});
  }
  for (const auto& sites : {horizontal, diagonal}) {
    auto sub_r = BuildVoronoiSubdivision(sites, area);
    ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
    EXPECT_OK(sub_r.value().Validate());
    EXPECT_EQ(sub_r.value().NumRegions(), 8);
  }
}

TEST(VoronoiTest, CollinearNearCoincidentPairRejected) {
  const BBox area{0, 0, 1000, 1000};
  std::vector<Point> sites;
  for (int i = 0; i < 6; ++i) sites.push_back({100.0 + 100.0 * i, 500.0});
  sites.push_back({sites[3].x + 3e-6, 500.0});  // just under the threshold
  auto r = VoronoiCells(sites, area);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(VoronoiTest, CellsContainTheirSites) {
  Rng rng(3);
  const BBox area = workload::DefaultServiceArea();
  auto pts = workload::UniformPoints(64, area, &rng);
  auto cells_r = VoronoiCells(pts, area);
  ASSERT_TRUE(cells_r.ok());
  const auto& cells = cells_r.value();
  double total = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(cells[i].Contains(pts[i])) << "site " << i;
    EXPECT_TRUE(cells[i].IsConvex()) << "site " << i;
    total += cells[i].Area();
  }
  EXPECT_NEAR(total, area.Area(), area.Area() * 1e-6);
}

TEST(VoronoiTest, NearestNeighborSemantics) {
  Rng rng(17);
  const BBox area = workload::DefaultServiceArea();
  auto pts = workload::UniformPoints(40, area, &rng);
  auto sub_r = BuildVoronoiSubdivision(pts, area);
  ASSERT_TRUE(sub_r.ok());
  const Subdivision& sub = sub_r.value();
  EXPECT_OK(sub.Validate());
  PointLocator loc(sub);
  for (int q = 0; q < 500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    // Region id must be the nearest site's id.
    int nearest = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
      if (geom::DistanceSquared(p, pts[i]) <
          geom::DistanceSquared(p, pts[nearest])) {
        nearest = static_cast<int>(i);
      }
    }
    EXPECT_EQ(loc.Locate(p), nearest);
  }
}

TEST(VoronoiTest, ValidatesOnPaperScaleDatasets) {
  for (int n : {185, 500}) {
    const Subdivision sub = test::ClusteredVoronoi(n, 1000 + n);
    EXPECT_EQ(sub.NumRegions(), n);
    EXPECT_OK(sub.Validate());
  }
}

TEST(ExtentTest, SingleRegionIsItsRing) {
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells());
  ASSERT_TRUE(sub_r.ok());
  auto loops_r = ComputeExtent(sub_r.value(), {0});
  ASSERT_TRUE(loops_r.ok());
  ASSERT_EQ(loops_r.value().size(), 1u);
  EXPECT_TRUE(loops_r.value()[0].closed);
  EXPECT_EQ(loops_r.value()[0].pts.size(), 4u);
}

TEST(ExtentTest, UnionDropsInteriorBorder) {
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells());
  ASSERT_TRUE(sub_r.ok());
  // Cells 0 (lower-left) and 1 (upper-left) form the left half.
  auto loops_r = ComputeExtent(sub_r.value(), {0, 1});
  ASSERT_TRUE(loops_r.ok());
  ASSERT_EQ(loops_r.value().size(), 1u);
  const geom::Polyline& loop = loops_r.value()[0];
  EXPECT_TRUE(loop.closed);
  // 1x2 rectangle with mid-edge vertices on both long sides: 6 vertices.
  EXPECT_EQ(loop.pts.size(), 6u);
  geom::Polygon poly(loop.pts);
  EXPECT_NEAR(poly.Area(), 2.0, 1e-12);
}

TEST(ExtentTest, HoleLoopAppears) {
  // 3x3 grid; extent of the 8 outer cells must contain a hole loop around
  // the center cell.
  std::vector<Polygon> cells;
  int center = -1;
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      if (gx == 1 && gy == 1) center = static_cast<int>(cells.size());
      const double x = gx, y = gy;
      cells.push_back(Polygon(
          {{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}}));
    }
  }
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 3, 3}, cells);
  ASSERT_TRUE(sub_r.ok());
  std::vector<int> outer;
  for (int i = 0; i < 9; ++i) {
    if (i != center) outer.push_back(i);
  }
  auto loops_r = ComputeExtent(sub_r.value(), outer);
  ASSERT_TRUE(loops_r.ok());
  EXPECT_EQ(loops_r.value().size(), 2u);  // outer boundary + hole
}

TEST(ExtentTest, AllRegionsGiveServiceBoundary) {
  const Subdivision sub = test::RandomVoronoi(50, 5);
  std::vector<int> all(sub.NumRegions());
  for (int i = 0; i < sub.NumRegions(); ++i) all[i] = i;
  auto loops_r = ComputeExtent(sub, all);
  ASSERT_TRUE(loops_r.ok());
  ASSERT_EQ(loops_r.value().size(), 1u);
  geom::Polygon boundary(loops_r.value()[0].pts);
  EXPECT_NEAR(boundary.Area(), sub.service_area().Area(),
              sub.service_area().Area() * 1e-9);
}

TEST(ExtentTest, RejectsEmptyGroup) {
  const Subdivision sub = test::RandomVoronoi(10, 6);
  EXPECT_FALSE(ComputeExtent(sub, {}).ok());
  EXPECT_FALSE(ComputeExtent(sub, {999}).ok());
}

TEST(SubdivisionTest, EdgeTwinsPairReversedEdges) {
  const Subdivision sub = test::RandomVoronoi(120, 31);
  const BBox& area = sub.service_area();
  auto on_border = [&](const Point& p) {
    return std::abs(p.x - area.min_x) <= geom::kMergeEps ||
           std::abs(p.x - area.max_x) <= geom::kMergeEps ||
           std::abs(p.y - area.min_y) <= geom::kMergeEps ||
           std::abs(p.y - area.max_y) <= geom::kMergeEps;
  };
  for (int r = 0; r < sub.NumRegions(); ++r) {
    const std::vector<int>& ring = sub.Ring(r);
    ASSERT_EQ(sub.EdgeTwins(r).size(), ring.size());
    for (size_t k = 0; k < ring.size(); ++k) {
      const int a = ring[k];
      const int b = ring[(k + 1) % ring.size()];
      const int twin = sub.EdgeTwins(r)[k];
      ASSERT_NE(twin, Subdivision::kUnstitchedEdge);
      if (twin == Subdivision::kBorderEdge) {
        EXPECT_TRUE(on_border(sub.vertices()[a]) &&
                    on_border(sub.vertices()[b]));
        continue;
      }
      // The twin's ring runs b -> a and names r across it.
      const std::vector<int>& other = sub.Ring(twin);
      int found = 0;
      for (size_t j = 0; j < other.size(); ++j) {
        if (other[j] == b && other[(j + 1) % other.size()] == a) {
          ++found;
          EXPECT_EQ(sub.EdgeTwins(twin)[j], r);
        }
      }
      EXPECT_EQ(found, 1) << "region " << r << " edge " << k;
    }
  }
}

/// The boundary of a region group as the test computes it: a multiset of
/// the members' directed ring edges in which an edge and its reverse
/// cancel.
std::map<std::pair<int, int>, int> ReferenceBoundary(
    const Subdivision& sub, const std::vector<int>& group) {
  std::map<std::pair<int, int>, int> edges;
  for (int r : group) {
    const std::vector<int>& ring = sub.Ring(r);
    for (size_t i = 0; i < ring.size(); ++i) {
      const int a = ring[i];
      const int b = ring[(i + 1) % ring.size()];
      const auto rev = edges.find({b, a});
      if (rev != edges.end()) {
        if (--rev->second == 0) edges.erase(rev);
      } else {
        ++edges[{a, b}];
      }
    }
  }
  return edges;
}

/// Checks ComputeExtent(group) against ReferenceBoundary and the canonical
/// order, and that shuffling the group does not change the output.
void ExpectCanonicalExtent(const Subdivision& sub, std::vector<int> group,
                           Rng* rng) {
  std::map<std::pair<double, double>, int> vertex_id;
  for (size_t v = 0; v < sub.vertices().size(); ++v) {
    vertex_id[{sub.vertices()[v].x, sub.vertices()[v].y}] =
        static_cast<int>(v);
  }
  auto loops_r = ComputeExtent(sub, group);
  ASSERT_TRUE(loops_r.ok()) << loops_r.status().ToString();
  std::map<std::pair<int, int>, int> got;
  int prev_start = -1;
  for (const geom::Polyline& loop : loops_r.value()) {
    ASSERT_TRUE(loop.closed);
    ASSERT_GE(loop.pts.size(), 3u);
    std::vector<int> ids;
    for (const Point& p : loop.pts) {
      const auto it = vertex_id.find({p.x, p.y});
      ASSERT_NE(it, vertex_id.end());
      ids.push_back(it->second);
    }
    EXPECT_EQ(ids.front(), *std::min_element(ids.begin(), ids.end()));
    EXPECT_GE(ids.front(), prev_start);
    prev_start = ids.front();
    for (size_t i = 0; i < ids.size(); ++i) {
      ++got[{ids[i], ids[(i + 1) % ids.size()]}];
    }
  }
  EXPECT_EQ(got, ReferenceBoundary(sub, group));

  rng->Shuffle(&group);
  auto shuffled_r = ComputeExtent(sub, group);
  ASSERT_TRUE(shuffled_r.ok());
  ASSERT_EQ(shuffled_r.value().size(), loops_r.value().size());
  for (size_t i = 0; i < loops_r.value().size(); ++i) {
    EXPECT_EQ(shuffled_r.value()[i].pts, loops_r.value()[i].pts);
  }
}

TEST(ExtentTest, MatchesReferenceInCanonicalOrder) {
  Rng rng(77);
  int multi_loop_groups = 0;
  for (int n : {20, 60, 150}) {
    const Subdivision sub = test::RandomVoronoi(n, 700 + n);
    const BBox& area = sub.service_area();
    const Point centre{(area.min_x + area.max_x) / 2,
                       (area.min_y + area.max_y) / 2};
    auto dist = [&](int r) {
      const BBox& b = sub.RegionBounds(r);
      return geom::Distance(
          centre, Point{(b.min_x + b.max_x) / 2, (b.min_y + b.max_y) / 2});
    };
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                   std::to_string(trial));
      // Random halves (mostly disconnected), a ring around the centre
      // (a hole) and its complement (an island plus the outer band).
      std::vector<int> random_half, annulus, not_annulus;
      const double r0 = rng.Uniform(50.0, 200.0);
      const double r1 = r0 + rng.Uniform(100.0, 250.0);
      for (int r = 0; r < n; ++r) {
        if (rng.Uniform(0.0, 1.0) < 0.5) random_half.push_back(r);
        (dist(r) >= r0 && dist(r) <= r1 ? annulus : not_annulus)
            .push_back(r);
      }
      for (const std::vector<int>* group :
           {&random_half, &annulus, &not_annulus}) {
        if (group->empty()) continue;
        ExpectCanonicalExtent(sub, *group, &rng);
        auto loops_r = ComputeExtent(sub, *group);
        if (loops_r.ok() && loops_r.value().size() > 1) ++multi_loop_groups;
      }
    }
  }
  // Disconnected groups and groups with holes are both multi-loop.
  EXPECT_GT(multi_loop_groups, 100);
}

TEST(ExtentTest, PinchVertexTakesLowestNextVertex) {
  // Lower-left and upper-right cells touch at the centre (1, 1), which
  // then has two outgoing boundary edges.
  auto sub_r = Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells());
  ASSERT_TRUE(sub_r.ok());
  const std::vector<std::vector<Point>> want = {
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}},
      {{1, 1}, {2, 1}, {2, 2}, {1, 2}},
  };
  for (const std::vector<int>& group :
       {std::vector<int>{0, 3}, std::vector<int>{3, 0}}) {
    auto loops_r = ComputeExtent(sub_r.value(), group);
    ASSERT_TRUE(loops_r.ok()) << loops_r.status().ToString();
    ASSERT_EQ(loops_r.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(loops_r.value()[i].closed);
      EXPECT_EQ(loops_r.value()[i].pts, want[i]) << "loop " << i;
    }
  }
}

TEST(ExtentTest, HostileGroupsFailWithAStatus) {
  const Subdivision sub = test::RandomVoronoi(10, 6);
  EXPECT_EQ(ComputeExtent(sub, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeExtent(sub, {-1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ComputeExtent(sub, {0, 10}).status().code(),
            StatusCode::kInvalidArgument);
  // A repeated id keeps its ring twice.
  EXPECT_EQ(ComputeExtent(sub, {2, 2}).status().code(),
            StatusCode::kInternal);

  // Two identical squares repeat every directed edge: an unstitched
  // subdivision. Any group that holds one of them fails.
  const Polygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  auto twice_r = Subdivision::FromPolygons(BBox{0, 0, 1, 1}, {square, square});
  ASSERT_TRUE(twice_r.ok());
  for (const std::vector<int>& group :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1}}) {
    EXPECT_EQ(ComputeExtent(twice_r.value(), group).status().code(),
              StatusCode::kInternal);
  }

  // A segment on three rings: the two squares pair across x = 1 first,
  // then a triangle repeats the left square's edge (1, 0) -> (1, 1). All
  // three copies are marked, so each ring alone fails.
  auto thrice_r = Subdivision::FromPolygons(
      BBox{0, 0, 2, 1},
      {square, Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}}),
       Polygon({{1, 0}, {1, 1}, {0.5, 0.5}})});
  ASSERT_TRUE(thrice_r.ok());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(ComputeExtent(thrice_r.value(), {r}).status().code(),
              StatusCode::kInternal)
        << "region " << r;
  }
}

double TotalArea(const std::vector<geom::Triangle>& tris) {
  double a = 0.0;
  for (const auto& t : tris) a += t.Area();
  return a;
}

TEST(TriangulateTest, EarClipSquare) {
  std::vector<geom::Triangle> tris;
  ASSERT_OK(EarClipTriangulate({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, &tris));
  EXPECT_EQ(tris.size(), 2u);
  EXPECT_NEAR(TotalArea(tris), 1.0, 1e-12);
}

TEST(TriangulateTest, EarClipNonConvex) {
  std::vector<geom::Triangle> tris;
  ASSERT_OK(EarClipTriangulate(
      {{0, 0}, {4, 0}, {4, 4}, {2, 1}, {0, 4}}, &tris));
  EXPECT_EQ(tris.size(), 3u);
  EXPECT_NEAR(TotalArea(tris), 10.0, 1e-9);  // shoelace area of the ring
}

TEST(TriangulateTest, EarClipCollinearVertices) {
  // Square with a redundant vertex mid-edge; every vertex must appear as a
  // triangle corner so the mesh stays consistent.
  std::vector<geom::Triangle> tris;
  ASSERT_OK(EarClipTriangulate(
      {{0, 0}, {0.5, 0}, {1, 0}, {1, 1}, {0, 1}}, &tris));
  EXPECT_EQ(tris.size(), 3u);
  EXPECT_NEAR(TotalArea(tris), 1.0, 1e-12);
  std::set<std::pair<double, double>> used;
  for (const auto& t : tris) {
    for (const auto& v : t.v) used.insert({v.x, v.y});
  }
  EXPECT_EQ(used.size(), 5u);
}

TEST(TriangulateTest, EarClipRejectsBadInput) {
  std::vector<geom::Triangle> tris;
  EXPECT_FALSE(EarClipTriangulate({{0, 0}, {1, 0}}, &tris).ok());
  // Clockwise ring.
  EXPECT_FALSE(
      EarClipTriangulate({{0, 0}, {0, 1}, {1, 1}, {1, 0}}, &tris).ok());
}

TEST(TriangulateTest, FanConvex) {
  auto tris_r = FanTriangulate(Polygon({{0, 0}, {2, 0}, {2, 2}, {0, 2}}));
  ASSERT_TRUE(tris_r.ok());
  EXPECT_EQ(tris_r.value().size(), 2u);
  EXPECT_NEAR(TotalArea(tris_r.value()), 4.0, 1e-12);
  // Convex with a collinear vertex falls back to ear clipping.
  auto tris2_r =
      FanTriangulate(Polygon({{0, 0}, {1, 0}, {2, 0}, {2, 2}, {0, 2}}));
  ASSERT_TRUE(tris2_r.ok());
  EXPECT_EQ(tris2_r.value().size(), 3u);
  EXPECT_FALSE(FanTriangulate(Polygon(
                   {{0, 0}, {4, 0}, {4, 4}, {2, 1}, {0, 4}}))
                   .ok());  // non-convex
}

TEST(TriangulateTest, RectAnnulus) {
  // Inner unit square ring with an extra vertex on the bottom edge.
  std::vector<Point> inner_ring{{0, 0}, {0.5, 0}, {1, 0}, {1, 1}, {0, 1}};
  std::vector<geom::Triangle> tris;
  ASSERT_OK(TriangulateRectAnnulus(BBox{-1, -1, 2, 2}, BBox{0, 0, 1, 1},
                                   inner_ring, &tris));
  // Annulus area = 9 - 1 = 8.
  EXPECT_NEAR(TotalArea(tris), 8.0, 1e-9);
  for (const auto& t : tris) EXPECT_GT(t.SignedArea(), 0.0);
  // The mid-edge vertex must be used.
  bool found = false;
  for (const auto& t : tris) {
    for (const auto& v : t.v) {
      if (geom::NearlyEqual(v, Point{0.5, 0})) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BorderDistanceTest, GridMatchesBruteForce) {
  // The grid-accelerated DistanceToNearestBorder must agree with an
  // explicit scan over every region edge, for points inside and outside
  // the service area.
  const Subdivision sub = test::RandomVoronoi(120, 3131);
  auto brute = [&](const Point& p) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < sub.NumRegions(); ++i) {
      const std::vector<int>& ring = sub.Ring(i);
      for (size_t j = 0; j < ring.size(); ++j) {
        const Point& a = sub.vertices()[ring[j]];
        const Point& b = sub.vertices()[ring[(j + 1) % ring.size()]];
        best = std::min(best, geom::DistanceToSegment(a, b, p));
      }
    }
    return best;
  };
  Rng rng(99);
  const BBox& area = sub.service_area();
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(area.min_x, area.max_x),
                  rng.Uniform(area.min_y, area.max_y)};
    EXPECT_NEAR(sub.DistanceToNearestBorder(p), brute(p), 1e-12);
  }
  // Outside the grid extent: full-scan fallback.
  for (const Point p : {Point{area.min_x - 3.0, area.min_y - 2.0},
                        Point{area.max_x + 5.0, area.Center().y},
                        Point{area.Center().x, area.max_y + 0.5}}) {
    EXPECT_NEAR(sub.DistanceToNearestBorder(p), brute(p), 1e-12);
  }
  // On a region vertex the distance is exactly zero.
  EXPECT_EQ(sub.DistanceToNearestBorder(sub.vertices()[0]), 0.0);
}

// Property audit of the expanding-ring early exit: the scan breaks after
// ring r once best <= r * min_cell — exactly the clearance of the first
// uncovered ring (r + 1), which is min_cell * ((r + 1) - 1). The bound
// relies only on the query point lying in its own *closed* grid cell, so it
// must also hold for points exactly on a grid-cell boundary, where the
// clamp+floor cell assignment picks one of the two touching cells. Pits the
// grid path against BorderDistanceFullScan on 10k random and
// boundary-aligned points; both paths call the same DistanceToSegment on
// the optimal edge, so the agreement is exact, not approximate.
TEST(BorderDistanceTest, RingEarlyExitExactOn10kRandomAndAlignedPoints) {
  const Subdivision sub = test::RandomVoronoi(200, 71);
  ASSERT_GT(sub.border_grid_dim(), 0);
  const BBox& box = sub.border_grid_box();
  const int dim = sub.border_grid_dim();
  const double cw = sub.border_cell_w();
  const double ch = sub.border_cell_h();
  Rng rng(17);
  auto grid_x = [&] {
    return box.min_x + cw * static_cast<double>(rng.UniformInt(0, dim));
  };
  auto grid_y = [&] {
    return box.min_y + ch * static_cast<double>(rng.UniformInt(0, dim));
  };
  for (int i = 0; i < 10000; ++i) {
    Point p;
    switch (i % 4) {
      case 0:  // fully random
        p = {rng.Uniform(box.min_x, box.max_x),
             rng.Uniform(box.min_y, box.max_y)};
        break;
      case 1:  // exactly on a vertical grid-cell boundary
        p = {grid_x(), rng.Uniform(box.min_y, box.max_y)};
        break;
      case 2:  // exactly on a horizontal grid-cell boundary
        p = {rng.Uniform(box.min_x, box.max_x), grid_y()};
        break;
      default:  // exactly on a grid-cell corner
        p = {grid_x(), grid_y()};
        break;
    }
    ASSERT_EQ(sub.DistanceToNearestBorder(p), sub.BorderDistanceFullScan(p))
        << "point (" << p.x << ", " << p.y << ") at i=" << i;
  }
  // Region vertices are themselves often boundary-aligned after clamping;
  // they must all report an exact zero.
  for (size_t v = 0; v < sub.vertices().size(); v += 7) {
    ASSERT_EQ(sub.DistanceToNearestBorder(sub.vertices()[v]), 0.0);
  }
}

/// FNV-1a-64 over 64-bit words.
class Fnv {
 public:
  void Mix(int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void MixDouble(double v) {
    int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// Border-distance probes for a pinned map: a 17 x 17 lattice over the
/// service area grown by a tenth on each side (its outer points lie outside
/// the border grid and full-scan), and every 37th vertex.
std::vector<Point> BorderProbes(const Subdivision& sub) {
  const BBox& a = sub.service_area();
  const double mx = 0.1 * a.width(), my = 0.1 * a.height();
  std::vector<Point> points;
  for (int i = 0; i <= 16; ++i) {
    for (int j = 0; j <= 16; ++j) {
      points.push_back({a.min_x - mx + (a.width() + 2 * mx) * i / 16.0,
                        a.min_y - my + (a.height() + 2 * my) * j / 16.0});
    }
  }
  for (size_t v = 0; v < sub.vertices().size(); v += 37) {
    points.push_back(sub.vertices()[v]);
  }
  return points;
}

/// One digest of everything FromPolygons builds: every vertex's bits,
/// every ring, the edge twins, the region bounds, the border grid's
/// dimensions, and DistanceToNearestBorder at BorderProbes.
uint64_t StitchDigest(const Subdivision& sub) {
  Fnv h;
  h.Mix(static_cast<int64_t>(sub.vertices().size()));
  for (const Point& v : sub.vertices()) {
    h.MixDouble(v.x);
    h.MixDouble(v.y);
  }
  h.Mix(sub.NumRegions());
  for (int r = 0; r < sub.NumRegions(); ++r) {
    h.Mix(static_cast<int64_t>(sub.Ring(r).size()));
    for (const int v : sub.Ring(r)) h.Mix(v);
    h.Mix(static_cast<int64_t>(sub.EdgeTwins(r).size()));
    for (const int t : sub.EdgeTwins(r)) h.Mix(t);
    const BBox& b = sub.RegionBounds(r);
    for (const double c : {b.min_x, b.min_y, b.max_x, b.max_y}) {
      h.MixDouble(c);
    }
  }
  h.Mix(sub.border_grid_dim());
  const BBox& g = sub.border_grid_box();
  for (const double c : {g.min_x, g.min_y, g.max_x, g.max_y}) {
    h.MixDouble(c);
  }
  h.MixDouble(sub.border_cell_w());
  h.MixDouble(sub.border_cell_h());
  for (const Point& p : BorderProbes(sub)) {
    h.MixDouble(sub.DistanceToNearestBorder(p));
  }
  return h.value();
}

/// The snap cell FromPolygons files a coordinate under (4 kMergeEps wide).
int64_t SnapCell(double v) {
  return static_cast<int64_t>(std::floor(v / (geom::kMergeEps * 4.0)));
}

/// Triangles whose tips lie within kMergeEps of two earlier tips at once,
/// each earlier one in a different snap cell or in the same one. The snap
/// probes the 3 x 3 cells around a point, x offset outer and y offset
/// inner, and takes the first match in a cell's insertion order; each
/// triple below gives another answer under any other rule, which the test
/// checks before pinning the map. Each triangle opens away from the other
/// tips, with its own height, so no T-junction joins them.
struct FirstMatchFixture {
  std::vector<Polygon> cells;
  /// Per triple: the polygon index of the tip that must snap, and of the
  /// tip it must snap to.
  std::vector<std::pair<int, int>> snaps;
};

FirstMatchFixture FirstMatchCells() {
  const double w = geom::kMergeEps * 4.0;
  FirstMatchFixture f;
  double height = 0.5;
  auto triangle = [&](const Point& tip, bool up) {
    const double h = up ? height : -height;
    // A downward triangle is clockwise: the stitch reads it backwards.
    f.cells.push_back(Polygon({tip, {tip.x + 0.1, tip.y + h},
                               {tip.x - 0.1, tip.y + h}}));
    height += 0.125;
  };
  // Across a vertical cell wall: the left cell is probed first although
  // its tip was interned second.
  {
    const double c = w * 250000;
    triangle({c + 0.6e-6, 1.0}, true);
    triangle({c - 0.6e-6, 1.0}, true);
    triangle({c + 0.1e-6, 1.0}, true);
    f.snaps.emplace_back(2, 1);
  }
  // Within one cell: the tip interned first wins.
  {
    const double c = w * 300000;
    triangle({c + 1.7e-6, 1.5}, true);
    triangle({c + 0.5e-6, 1.5}, true);
    triangle({c + 1.1e-6, 1.5}, true);
    f.snaps.emplace_back(5, 3);
  }
  // Diagonal: cell (k - 1, m + 1) comes before cell (k, m) because the x
  // offset is the outer loop.
  {
    const double c = w * 350000, d = w * 400001;
    triangle({c + 0.6e-6, d - 0.8e-6}, false);
    triangle({c - 0.5e-6, d + 0.5e-6}, true);
    triangle({c + 0.1e-6, d - 0.1e-6}, true);
    f.snaps.emplace_back(8, 7);
  }
  return f;
}

// Pins everything the stitch builds, bit for bit, on the paper maps, two
// SCALE maps and the fixtures of the tests above. Vertex ids follow
// first-seen order and the extent and the D-tree bytes depend on them,
// so a change to the stitch must leave every digest here unedited.
TEST(SubdivisionTest, StitchIsPinned) {
  struct Input {
    std::string name;
    Result<Subdivision> sub;
  };
  std::vector<Input> inputs;
  std::vector<workload::Dataset> maps = workload::MakePaperDatasets().value();
  for (workload::Dataset& d : maps) {
    inputs.push_back({d.name, std::move(d.subdivision)});
  }
  for (const auto dist : {workload::ScaleDistribution::kUniform,
                          workload::ScaleDistribution::kClustered}) {
    workload::Dataset d = workload::MakeScaleDataset(20000, dist).value();
    inputs.push_back({d.name, std::move(d.subdivision)});
  }
  inputs.push_back(
      {"grid", Subdivision::FromPolygons(BBox{0, 0, 2, 2}, GridCells())});
  inputs.push_back(
      {"t-junction",
       Subdivision::FromPolygons(
           BBox{0, 0, 2, 2},
           {Polygon({{0, 0}, {1, 0}, {1, 2}, {0, 2}}),
            Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}}),
            Polygon({{1, 1}, {2, 1}, {2, 2}, {1, 2}})})});
  inputs.push_back(
      {"near-snap",
       Subdivision::FromPolygons(
           BBox{0, 0, 2, 1},
           {Polygon({{0, 0}, {1.00000001, 0}, {1, 1}, {0, 1}}),
            Polygon({{1, 0}, {2, 0}, {2, 1}, {1.00000001, 1}})})});
  // Clockwise rings, consecutive vertices that snap together and a last
  // vertex that snaps onto the first: the ring is read backwards and
  // collapsed.
  inputs.push_back(
      {"clockwise",
       Subdivision::FromPolygons(
           BBox{0, 0, 2, 2},
           {Polygon({{0, 0}, {0, 1}, {1, 1}, {1, 0}}),
            Polygon({{0, 1}, {0, 2}, {1e-8, 2}, {1, 2}, {1, 1}}),
            Polygon({{1, 0}, {1, 1}, {2, 1}, {2, 1e-8}, {2, 0},
                     {1 + 1e-8, 1e-8}}),
            Polygon({{1, 1}, {2, 1}, {2, 2}, {1, 2}})})});
  const Polygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  inputs.push_back(
      {"two-squares",
       Subdivision::FromPolygons(BBox{0, 0, 1, 1}, {square, square})});
  inputs.push_back(
      {"three-rings",
       Subdivision::FromPolygons(
           BBox{0, 0, 2, 1},
           {square, Polygon({{1, 0}, {2, 0}, {2, 1}, {1, 1}}),
            Polygon({{1, 0}, {1, 1}, {0.5, 0.5}})})});
  const FirstMatchFixture first_match = FirstMatchCells();
  inputs.push_back(
      {"first-match",
       Subdivision::FromPolygons(BBox{0, 0, 4, 4}, first_match.cells)});

  // The first-match fixture is what it claims: each probe point lies in
  // the snap cell described above and takes the vertex the rule picks.
  {
    const Subdivision& sub = inputs.back().sub.value();
    for (int r = 0; r < sub.NumRegions(); ++r) {
      EXPECT_EQ(sub.Ring(r).size(), 3u) << "region " << r;
    }
    for (const auto& [probe, target] : first_match.snaps) {
      const Point p = first_match.cells[probe].ring()[0];
      const Point t = first_match.cells[target].ring()[0];
      EXPECT_TRUE(geom::NearlyEqual(p, t));
      EXPECT_EQ(sub.vertices()[sub.Ring(probe)[0]], t) << "probe " << probe;
      EXPECT_EQ(sub.Ring(probe)[0], sub.Ring(target)[0]);
    }
    const double w = geom::kMergeEps * 4.0;
    EXPECT_EQ(SnapCell(w * 250000 - 0.6e-6), 250000 - 1);
    EXPECT_EQ(SnapCell(w * 250000 + 0.1e-6), 250000);
    EXPECT_EQ(SnapCell(w * 300000 + 1.7e-6), SnapCell(w * 300000 + 0.5e-6));
    EXPECT_EQ(SnapCell(w * 350000 - 0.5e-6), 350000 - 1);
    EXPECT_EQ(SnapCell(w * 400001 + 0.5e-6), 400001);
    EXPECT_EQ(SnapCell(w * 400001 - 0.1e-6), 400000);
  }

  struct Pin {
    const char* name;
    uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"UNIFORM", 0x5d813eabd344aa42ull},
      {"HOSPITAL", 0x9cf368aa75d0af90ull},
      {"PARK", 0x57d15cddfe90cb35ull},
      {"SCALE-U20000", 0x3d00d4853cccbecdull},
      {"SCALE-C20000", 0xb5b6dfa28c8d2de2ull},
      {"grid", 0x278594640ddcd686ull},
      {"t-junction", 0x18dd77e380d3b2b4ull},
      {"near-snap", 0xcfd5440ba1ec31f9ull},
      {"clockwise", 0x9873aa61021cf129ull},
      {"two-squares", 0x88eec7edecb8db2aull},
      {"three-rings", 0xa481475ff094869bull},
      {"first-match", 0x3b16ab79b43b622full},
  };
  ASSERT_EQ(std::size(kPins), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(inputs[i].name, kPins[i].name);
    ASSERT_TRUE(inputs[i].sub.ok()) << inputs[i].sub.status().ToString();
    const uint64_t digest = StitchDigest(inputs[i].sub.value());
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, kPins[i].digest)
        << kPins[i].name << ": digest " << hex;
  }
}

// Above the 2048-polygon threshold every count but one splits rings on the
// pool; the stitch must not depend on it.
TEST(SubdivisionTest, StitchIsThreadCountInvariant) {
  Rng rng(11);
  const BBox area = workload::DefaultServiceArea();
  const std::vector<Point> sites = workload::UniformPoints(2500, area, &rng);
  const std::vector<Polygon> cells = VoronoiCells(sites, area).value();
  const uint64_t serial =
      StitchDigest(Subdivision::FromPolygons(area, cells, 1).value());
  for (const int threads : {2, 4, 8, 0}) {
    EXPECT_EQ(
        StitchDigest(Subdivision::FromPolygons(area, cells, threads).value()),
        serial)
        << threads << " threads";
  }
}

// Eight threads make the first DistanceToNearestBorder call on one fresh
// Subdivision together; every answer must equal the full scan.
TEST(SubdivisionTest, ConcurrentFirstBorderQueriesMatchFullScan) {
  const Subdivision sub = test::RandomVoronoi(300, 4242);
  Rng rng(5);
  const BBox& area = sub.service_area();
  std::vector<Point> points(4000);
  for (Point& p : points) {
    p = {rng.Uniform(area.min_x, area.max_x),
         rng.Uniform(area.min_y, area.max_y)};
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const Point& p : points) {
        got[t].push_back(sub.DistanceToNearestBorder(p));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < points.size(); ++i) {
    const double want = sub.BorderDistanceFullScan(points[i]);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t][i], want) << "thread " << t << " point " << i;
    }
  }
}

TEST(TriangulateTest, RectAnnulusRejectsBadInput) {
  std::vector<geom::Triangle> tris;
  // Outer does not contain inner.
  EXPECT_FALSE(TriangulateRectAnnulus(BBox{0, 0, 1, 1}, BBox{0, 0, 1, 1},
                                      {{0, 0}, {1, 0}, {1, 1}, {0, 1}},
                                      &tris)
                   .ok());
  // Ring missing a corner.
  EXPECT_FALSE(TriangulateRectAnnulus(BBox{-1, -1, 2, 2}, BBox{0, 0, 1, 1},
                                      {{0, 0}, {1, 0}, {1, 1}}, &tris)
                   .ok());
}

}  // namespace
}  // namespace dtree::sub
