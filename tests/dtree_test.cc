#include <set>

#include "broadcast/air_index.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::core {
namespace {

using geom::Point;

DTree::Options Opts(int capacity) {
  DTree::Options o;
  o.packet_capacity = capacity;
  return o;
}

TEST(DTreeTest, SingleRegion) {
  std::vector<geom::Polygon> one{
      geom::Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}})};
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 1, 1}, one);
  ASSERT_TRUE(sub_r.ok());
  auto tree_r = DTree::Build(sub_r.value(), Opts(128));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const DTree& tree = tree_r.value();
  EXPECT_EQ(tree.num_nodes(), 0);
  EXPECT_EQ(tree.Locate({0.5, 0.5}), 0);
  auto trace_r = tree.Probe({0.5, 0.5});
  ASSERT_TRUE(trace_r.ok());
  EXPECT_EQ(trace_r.value().region, 0);
  EXPECT_TRUE(trace_r.value().packets.empty());
}

TEST(DTreeTest, RejectsTinyPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(8, 2);
  EXPECT_FALSE(DTree::Build(sub, Opts(8)).ok());
}

TEST(DTreeTest, StructureProperties) {
  const sub::Subdivision sub = test::RandomVoronoi(64, 9);
  auto tree_r = DTree::Build(sub, Opts(256));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const DTree& tree = tree_r.value();
  // Property 1: every node has exactly two children -> a binary tree over
  // N regions has N-1 internal nodes.
  EXPECT_EQ(tree.num_nodes(), 63);
  // Property 3: height-balanced; with balanced splits the height is
  // exactly ceil(log2 N).
  EXPECT_EQ(tree.height(), 6);
  // Every region appears exactly once as a data pointer.
  std::multiset<int> regions;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DTreeNode& n = tree.node(i);
    EXPECT_TRUE((n.left_node >= 0) != (n.left_region >= 0));
    EXPECT_TRUE((n.right_node >= 0) != (n.right_region >= 0));
    if (n.left_region >= 0) regions.insert(n.left_region);
    if (n.right_region >= 0) regions.insert(n.right_region);
  }
  EXPECT_EQ(regions.size(), 64u);
  EXPECT_EQ(std::set<int>(regions.begin(), regions.end()).size(), 64u);
}

TEST(DTreeTest, LocateMatchesBruteForce) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 4);
  auto tree_r = DTree::Build(sub, Opts(256));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(5);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(DTreeTest, LocateMatchesBruteForceClustered) {
  const sub::Subdivision sub = test::ClusteredVoronoi(150, 21);
  auto tree_r = DTree::Build(sub, Opts(128));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(6);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(DTreeTest, ProbeTracesAreValid) {
  const sub::Subdivision sub = test::RandomVoronoi(64, 10);
  for (int capacity : {64, 256, 2048}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    const DTree& tree = tree_r.value();
    Rng rng(11);
    for (int q = 0; q < 500; ++q) {
      const Point p = test::UnambiguousQueryPoint(sub, &rng);
      auto trace_r = tree.Probe(p);
      ASSERT_TRUE(trace_r.ok());
      EXPECT_OK(bcast::ValidateTrace(trace_r.value(),
                                     tree.NumIndexPackets(),
                                     sub.NumRegions()));
      EXPECT_EQ(trace_r.value().region, tree.Locate(p));
      EXPECT_FALSE(trace_r.value().packets.empty());
      // Tuning is bounded by reading every node on a root-to-leaf path in
      // full (loose sanity bound).
      EXPECT_LE(static_cast<int>(trace_r.value().packets.size()),
                tree.NumIndexPackets());
    }
  }
}

TEST(DTreeTest, PagingInvariants) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 12);
  for (int capacity : {64, 128, 512}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const DTree& tree = tree_r.value();
    size_t total = 0;
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const DTreeNode& n = tree.node(i);
      const bcast::NodeSpan& s = tree.span(i);
      ASSERT_GE(s.first_packet, 0);
      ASSERT_LT(s.last_packet(), tree.NumIndexPackets());
      EXPECT_EQ(s.num_packets > 1, n.large);
      EXPECT_LE(s.offset + 1, static_cast<size_t>(capacity));
      total += n.byte_size;
      // Forward-only: children never live in earlier packets.
      if (n.left_node >= 0) {
        EXPECT_GE(tree.span(n.left_node).first_packet, s.last_packet());
      }
      if (n.right_node >= 0) {
        EXPECT_GE(tree.span(n.right_node).first_packet, s.last_packet());
      }
    }
    EXPECT_EQ(total, tree.IndexBytes());
    EXPECT_LE(tree.IndexBytes(),
              static_cast<size_t>(tree.NumIndexPackets()) * capacity);
  }
}

TEST(DTreeTest, LeafMergingSavesPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(200, 13);
  DTree::Options merged = Opts(512);
  DTree::Options unmerged = Opts(512);
  unmerged.merge_leaf_packets = false;
  auto a = DTree::Build(sub, merged);
  auto b = DTree::Build(sub, unmerged);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a.value().NumIndexPackets(), b.value().NumIndexPackets());
  // Same answers either way.
  Rng rng(14);
  for (int q = 0; q < 300; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(a.value().Locate(p), b.value().Locate(p));
  }
}

TEST(DTreeTest, EarlyTerminationNeverIncreasesTuning) {
  const sub::Subdivision sub = test::ClusteredVoronoi(120, 15);
  DTree::Options with = Opts(64);
  DTree::Options without = Opts(64);
  without.early_termination = false;
  auto a = DTree::Build(sub, with);
  auto b = DTree::Build(sub, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng(16);
  long with_total = 0, without_total = 0;
  for (int q = 0; q < 1000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    auto ta = a.value().Probe(p);
    auto tb = b.value().Probe(p);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    EXPECT_EQ(ta.value().region, tb.value().region);
    with_total += static_cast<long>(ta.value().packets.size());
    without_total += static_cast<long>(tb.value().packets.size());
  }
  EXPECT_LE(with_total, without_total);
}

TEST(DTreeSerializeTest, RoundTripQueries) {
  const sub::Subdivision sub = test::RandomVoronoi(80, 17);
  for (int capacity : {64, 128, 1024}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const DTree& tree = tree_r.value();
    auto packets_r = SerializeDTree(tree);
    ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();
    const auto& packets = packets_r.value();
    ASSERT_EQ(static_cast<int>(packets.num_packets()), tree.NumIndexPackets());
    EXPECT_EQ(packets.packet_bytes(), static_cast<size_t>(capacity));
    Rng rng(18);
    for (int q = 0; q < 500; ++q) {
      // Keep a float32-safe margin from borders: coordinates are
      // serialized as binary32 on the air.
      const Point p = test::UnambiguousQueryPoint(sub, &rng, 1e-3);
      std::vector<int> read;
      auto region_r = QueryFromPackets(packets, capacity, /*framed=*/false,
                                       tree.options().early_termination, p,
                                       &read);
      ASSERT_TRUE(region_r.ok()) << region_r.status().ToString();
      EXPECT_EQ(region_r.value(), tree.Locate(p));
      // The byte-level client and the cost model agree on tuning.
      auto trace_r = tree.Probe(p);
      ASSERT_TRUE(trace_r.ok());
      EXPECT_EQ(read, trace_r.value().packets);
    }
  }
}

TEST(DTreeSerializeTest, SmallerPacketsMoreIndexPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 19);
  int prev_packets = 0;
  size_t prev_bytes = 0;
  for (int capacity : {2048, 1024, 512, 256, 128, 64}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const int packets = tree_r.value().NumIndexPackets();
    if (prev_packets > 0) {
      EXPECT_GE(packets, prev_packets);
    }
    prev_packets = packets;
    if (prev_bytes > 0) {
      // Total bytes are nearly capacity-independent (node sizes only gain
      // the occasional RMC/LMC block).
      EXPECT_LT(tree_r.value().IndexBytes(), prev_bytes * 2);
    }
    prev_bytes = tree_r.value().IndexBytes();
  }
}

class DTreeSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DTreeSweepTest, AgreesWithOracle) {
  const auto [n, capacity] = GetParam();
  const sub::Subdivision sub = test::RandomVoronoi(n, 100 + n);
  auto tree_r = DTree::Build(sub, Opts(capacity));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(200 + n);
  for (int q = 0; q < 400; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    ASSERT_EQ(tree_r.value().Locate(p), oracle.Locate(p))
        << "n=" << n << " capacity=" << capacity << " p=" << p.x << ","
        << p.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DTreeSweepTest,
    ::testing::Combine(::testing::Values(2, 3, 7, 25, 64, 150),
                       ::testing::Values(64, 256, 2048)));

}  // namespace
}  // namespace dtree::core
