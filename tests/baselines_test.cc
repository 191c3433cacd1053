#include <set>

#include "baselines/kirkpatrick/arena.h"
#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/arena.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/arena.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/air_index.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::baselines {
namespace {

using geom::Point;

TEST(RStarTest, RejectsBadInput) {
  const sub::Subdivision sub = test::RandomVoronoi(10, 1);
  RStarTree::Options o;
  o.packet_capacity = 16;  // cannot hold two entries
  EXPECT_FALSE(RStarTree::Build(sub, o).ok());
}

TEST(RStarTest, NodeCapacityFollowsPacket) {
  const sub::Subdivision sub = test::RandomVoronoi(60, 2);
  for (int capacity : {64, 256, 2048}) {
    RStarTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = RStarTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    EXPECT_EQ(tree_r.value().max_entries(), (capacity - 2) / 18);
    EXPECT_GE(tree_r.value().min_entries(), 1);
    EXPECT_LE(tree_r.value().min_entries(),
              tree_r.value().max_entries() / 2);
  }
}

TEST(RStarTest, LocateMatchesOracle) {
  const sub::Subdivision sub = test::RandomVoronoi(120, 3);
  RStarTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = RStarTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(4);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(RStarTest, TracesAreForwardOnly) {
  const sub::Subdivision sub = test::ClusteredVoronoi(80, 5);
  RStarTree::Options o;
  o.packet_capacity = 256;
  auto tree_r = RStarTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  Rng rng(6);
  for (int q = 0; q < 500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    auto trace_r = tree_r.value().Probe(p);
    ASSERT_TRUE(trace_r.ok());
    EXPECT_OK(bcast::ValidateTrace(trace_r.value(),
                                   tree_r.value().NumIndexPackets(),
                                   sub.NumRegions(),
                                   /*require_forward=*/true));
  }
}

TEST(RStarTest, AdjacentRegionsOverlap) {
  // The paper's core argument against the R*-tree: tiling regions force
  // leaf MBRs to overlap.
  const sub::Subdivision sub = test::RandomVoronoi(100, 7);
  RStarTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = RStarTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  EXPECT_GT(tree_r.value().LeafOverlapArea(), 0.0);
}

TEST(TrapMapTest, RejectsBadInput) {
  const sub::Subdivision sub = test::RandomVoronoi(10, 8);
  TrapMap::Options o;
  o.packet_capacity = 16;
  EXPECT_FALSE(TrapMap::Build(sub, o).ok());
}

TEST(TrapMapTest, InvariantsOnUniform) {
  const sub::Subdivision sub = test::RandomVoronoi(80, 9);
  TrapMap::Options o;
  o.packet_capacity = 128;
  auto map_r = TrapMap::Build(sub, o);
  ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
  EXPECT_OK(TrapMap::CheckInvariants(sub, o, 3000, 10));
  // O(n) expected size: alive trapezoids <= ~3n + 4, DAG not absurd.
  EXPECT_LE(map_r.value().num_alive_trapezoids(),
            3 * map_r.value().num_segments() + 8);
}

TEST(TrapMapTest, TracesAreForwardOnly) {
  // The creation-order broadcast layout guarantees forward-only pointers
  // even though the search structure is a DAG.
  const sub::Subdivision sub = test::RandomVoronoi(90, 31);
  TrapMap::Options o;
  o.packet_capacity = 128;
  auto map_r = TrapMap::Build(sub, o);
  ASSERT_TRUE(map_r.ok());
  Rng rng(32);
  for (int q = 0; q < 500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    auto trace_r = map_r.value().Probe(p);
    ASSERT_TRUE(trace_r.ok());
    EXPECT_OK(bcast::ValidateTrace(trace_r.value(),
                                   map_r.value().NumIndexPackets(),
                                   sub.NumRegions(),
                                   /*require_forward=*/true));
  }
}

TEST(TrianTreeTest, TracesAreForwardOnly) {
  // Level-descending broadcast order: every DAG edge goes to a strictly
  // lower level, so descents never rewind the channel.
  const sub::Subdivision sub = test::RandomVoronoi(90, 33);
  TrianTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = TrianTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  Rng rng(34);
  for (int q = 0; q < 500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    auto trace_r = tree_r.value().Probe(p);
    ASSERT_TRUE(trace_r.ok());
    EXPECT_OK(bcast::ValidateTrace(trace_r.value(),
                                   tree_r.value().NumIndexPackets(),
                                   sub.NumRegions(),
                                   /*require_forward=*/true));
  }
}

TEST(TrapMapTest, LocateMatchesOracle) {
  const sub::Subdivision sub = test::RandomVoronoi(120, 11);
  TrapMap::Options o;
  o.packet_capacity = 128;
  auto map_r = TrapMap::Build(sub, o);
  ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(12);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(map_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(TrapMapTest, LocateMatchesOracleClustered) {
  // Clustered Voronoi stresses elongated cells and near-vertical edges.
  const sub::Subdivision sub = test::ClusteredVoronoi(150, 13);
  TrapMap::Options o;
  o.packet_capacity = 64;
  auto map_r = TrapMap::Build(sub, o);
  ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
  EXPECT_OK(TrapMap::CheckInvariants(sub, o, 3000, 14));
  const sub::PointLocator oracle(sub);
  Rng rng(15);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(map_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(TrapMapTest, HandlesVerticalAndCollinearSegments) {
  // A 3x3 grid subdivision: every interior edge is axis-aligned, the
  // border edges are collinear chains — the degenerate cases the
  // lexicographic shear must handle.
  std::vector<geom::Polygon> cells;
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      const double x = gx * 10.0, y = gy * 10.0;
      cells.push_back(geom::Polygon(
          {{x, y}, {x + 10, y}, {x + 10, y + 10}, {x, y + 10}}));
    }
  }
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 30, 30}, cells);
  ASSERT_TRUE(sub_r.ok());
  TrapMap::Options o;
  o.packet_capacity = 64;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    o.seed = seed;
    auto map_r = TrapMap::Build(sub_r.value(), o);
    ASSERT_TRUE(map_r.ok()) << "seed " << seed << ": "
                            << map_r.status().ToString();
    EXPECT_OK(TrapMap::CheckInvariants(sub_r.value(), o, 2000, seed));
    const sub::PointLocator oracle(sub_r.value());
    Rng rng(16 + seed);
    for (int q = 0; q < 500; ++q) {
      const Point p = test::UnambiguousQueryPoint(sub_r.value(), &rng, 0.01);
      EXPECT_EQ(map_r.value().Locate(p), oracle.Locate(p)) << "seed " << seed;
    }
  }
}

TEST(TrianTreeTest, RejectsBadInput) {
  const sub::Subdivision sub = test::RandomVoronoi(10, 17);
  TrianTree::Options o;
  o.packet_capacity = 32;
  EXPECT_FALSE(TrianTree::Build(sub, o).ok());
}

TEST(TrianTreeTest, HierarchyShrinks) {
  const sub::Subdivision sub = test::RandomVoronoi(60, 18);
  TrianTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = TrianTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const TrianTree& tree = tree_r.value();
  EXPECT_GT(tree.num_levels(), 1);
  // The top level is a small sequential-scan list, far below the base
  // triangle count.
  EXPECT_LT(tree.num_root_triangles(), tree.num_triangles() / 4);
}

TEST(TrianTreeTest, LocateMatchesOracle) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 19);
  TrianTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = TrianTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(20);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(TrianTreeTest, LocateMatchesOracleClustered) {
  const sub::Subdivision sub = test::ClusteredVoronoi(120, 21);
  TrianTree::Options o;
  o.packet_capacity = 64;
  auto tree_r = TrianTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(22);
  for (int q = 0; q < 1500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

// A point outside the service area lies in no R*-tree leaf MBR, so the
// probe fails and RStarTree::Locate returns -1, as TrianTree::Locate
// does; it used to abort the process. The D-tree and the trap-tree still
// descend to some region.
TEST(AllIndexLocateTest, PointOutsideTheServiceAreaDoesNotAbort) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const Point outside{-50, -50};
  ASSERT_FALSE(sub.service_area().Contains(outside));
  const int n = sub.NumRegions();

  core::DTree::Options dopt;
  dopt.packet_capacity = 256;
  auto dtree = core::DTree::Build(sub, dopt);
  ASSERT_TRUE(dtree.ok()) << dtree.status().ToString();
  RStarTree::Options ropt;
  ropt.packet_capacity = 256;
  auto rstar = RStarTree::Build(sub, ropt);
  ASSERT_TRUE(rstar.ok()) << rstar.status().ToString();
  TrapMap::Options topt;
  topt.packet_capacity = 256;
  auto trap = TrapMap::Build(sub, topt);
  ASSERT_TRUE(trap.ok()) << trap.status().ToString();
  TrianTree::Options kopt;
  kopt.packet_capacity = 256;
  auto trian = TrianTree::Build(sub, kopt);
  ASSERT_TRUE(trian.ok()) << trian.status().ToString();

  EXPECT_EQ(rstar.value().Locate(outside), -1);
  EXPECT_EQ(trian.value().Locate(outside), -1);
  const int d = dtree.value().Locate(outside);
  EXPECT_TRUE(d >= 0 && d < n) << "d-tree region " << d;
  const int t = trap.value().Locate(outside);
  EXPECT_TRUE(t >= 0 && t < n) << "trap-tree region " << t;
}

// The decoded layout is sized exactly: a tree's layout and the one
// decoded from its serialized bytes hold the same records, so they report
// the same ArenaBytes().
template <typename Index, typename BuildArenaFn>
void ExpectDecodedLayoutSizedExactly(BuildArenaFn build_arena) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& uniform = d_r.value().subdivision;
  const sub::Subdivision clustered = test::ClusteredVoronoi(300, 51);
  for (const sub::Subdivision* sub : {&uniform, &clustered}) {
    for (int capacity : {64, 256, 1024}) {
      typename Index::Options o;
      o.packet_capacity = capacity;
      auto index_r = Index::Build(*sub, o);
      ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
      auto arena_r = build_arena(index_r.value(), sub->NumRegions());
      ASSERT_TRUE(arena_r.ok()) << arena_r.status().ToString();
      EXPECT_EQ(arena_r.value().engine().ArenaBytes(),
                index_r.value().layout().ArenaBytes())
          << capacity << " B";
    }
  }
}

TEST(TrapMapTest, DecodedLayoutIsSizedExactly) {
  ExpectDecodedLayoutSizedExactly<TrapMap>(BuildTrapMapArenaIndex);
}

TEST(TrianTreeTest, DecodedLayoutIsSizedExactly) {
  ExpectDecodedLayoutSizedExactly<TrianTree>(BuildTrianTreeArenaIndex);
}

TEST(RStarTest, DecodedLayoutIsSizedExactly) {
  ExpectDecodedLayoutSizedExactly<RStarTree>(BuildRStarArenaIndex);
}

/// The keystone property: all four index structures answer every query
/// identically (ground truth included), across sizes and packet sizes.
class AllIndexAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(AllIndexAgreementTest, AllStructuresAgree) {
  const auto [n, capacity, clustered] = GetParam();
  const sub::Subdivision sub = clustered
                                   ? test::ClusteredVoronoi(n, 500 + n)
                                   : test::RandomVoronoi(n, 300 + n);
  const sub::PointLocator oracle(sub);

  core::DTree::Options dopt;
  dopt.packet_capacity = capacity;
  auto dtree = core::DTree::Build(sub, dopt);
  ASSERT_TRUE(dtree.ok()) << dtree.status().ToString();

  RStarTree::Options ropt;
  ropt.packet_capacity = capacity;
  auto rstar = RStarTree::Build(sub, ropt);
  ASSERT_TRUE(rstar.ok()) << rstar.status().ToString();

  TrapMap::Options topt;
  topt.packet_capacity = capacity;
  auto trap = TrapMap::Build(sub, topt);
  ASSERT_TRUE(trap.ok()) << trap.status().ToString();

  TrianTree::Options kopt;
  kopt.packet_capacity = capacity;
  auto trian = TrianTree::Build(sub, kopt);
  ASSERT_TRUE(trian.ok()) << trian.status().ToString();

  Rng rng(600 + n);
  for (int q = 0; q < 400; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    const int expect = oracle.Locate(p);
    EXPECT_EQ(dtree.value().Locate(p), expect) << "d-tree";
    EXPECT_EQ(rstar.value().Locate(p), expect) << "r*-tree";
    EXPECT_EQ(trap.value().Locate(p), expect) << "trap-tree";
    EXPECT_EQ(trian.value().Locate(p), expect) << "trian-tree";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllIndexAgreementTest,
    ::testing::Combine(::testing::Values(5, 20, 60, 120),
                       ::testing::Values(64, 512),
                       ::testing::Bool()));

}  // namespace
}  // namespace dtree::baselines
