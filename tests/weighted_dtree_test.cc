// Tests for the skew-aware (access-weighted) D-tree extension.

#include <cmath>
#include <numeric>

#include "broadcast/experiment.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::core {
namespace {

using geom::Point;

TEST(ZipfWeightsTest, ShapeAndDeterminism) {
  Rng rng1(5), rng2(5);
  const auto w1 = workload::ZipfWeights(100, 0.8, &rng1);
  const auto w2 = workload::ZipfWeights(100, 0.8, &rng2);
  EXPECT_EQ(w1, w2);
  ASSERT_EQ(w1.size(), 100u);
  for (double w : w1) {
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
  // Exactly one region holds the top weight 1/1^theta = 1.
  EXPECT_EQ(std::count(w1.begin(), w1.end(), 1.0), 1);
  // theta = 0 degenerates to uniform.
  Rng rng3(6);
  const auto uniform = workload::ZipfWeights(10, 0.0, &rng3);
  for (double w : uniform) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(WeightedDTreeTest, RejectsBadWeights) {
  const sub::Subdivision sub = test::RandomVoronoi(16, 41);
  DTree::Options o;
  o.packet_capacity = 128;
  o.access_weights = {1.0, 2.0};  // wrong length
  EXPECT_FALSE(DTree::Build(sub, o).ok());
  o.access_weights.assign(16, 0.0);  // all zero
  EXPECT_FALSE(DTree::Build(sub, o).ok());
  o.access_weights.assign(16, 1.0);
  o.access_weights[3] = -1.0;  // negative
  EXPECT_FALSE(DTree::Build(sub, o).ok());
}

TEST(WeightedDTreeTest, UniformWeightsMatchBalancedStructure) {
  const sub::Subdivision sub = test::RandomVoronoi(32, 43);
  DTree::Options plain;
  plain.packet_capacity = 128;
  DTree::Options weighted = plain;
  weighted.access_weights.assign(32, 1.0);
  auto a = DTree::Build(sub, plain);
  auto b = DTree::Build(sub, weighted);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Equal weights split at the same place as equal counts for even n.
  EXPECT_EQ(a.value().height(), b.value().height());
  EXPECT_EQ(a.value().num_nodes(), b.value().num_nodes());
}

TEST(WeightedDTreeTest, AgreesWithOracleUnderSkew) {
  const sub::Subdivision sub = test::ClusteredVoronoi(90, 44);
  Rng wrng(45);
  DTree::Options o;
  o.packet_capacity = 128;
  o.access_weights = workload::ZipfWeights(90, 1.0, &wrng);
  auto tree_r = DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(46);
  for (int q = 0; q < 1500; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

/// Depth of the leaf data pointer for `region`.
int RegionDepth(const DTree& tree, int region) {
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DTreeNode& n = tree.node(i);
    if (n.left_region == region || n.right_region == region) {
      return n.depth + 1;
    }
  }
  ADD_FAILURE() << "region " << region << " not found";
  return -1;
}

TEST(WeightedDTreeTest, HotRegionsSitHigher) {
  const sub::Subdivision sub = test::RandomVoronoi(128, 47);
  Rng wrng(48);
  std::vector<double> weights = workload::ZipfWeights(128, 1.2, &wrng);
  DTree::Options plain;
  plain.packet_capacity = 256;
  DTree::Options skewed = plain;
  skewed.access_weights = weights;
  auto a = DTree::Build(sub, plain);
  auto b = DTree::Build(sub, skewed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Weighted expected depth (by access probability) must improve.
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double exp_plain = 0.0, exp_skewed = 0.0;
  for (int r = 0; r < 128; ++r) {
    exp_plain += weights[r] / total * RegionDepth(a.value(), r);
    exp_skewed += weights[r] / total * RegionDepth(b.value(), r);
  }
  EXPECT_LT(exp_skewed, exp_plain);
  // And the hottest region specifically is at most as deep as in the
  // balanced tree.
  const int hottest = static_cast<int>(
      std::max_element(weights.begin(), weights.end()) - weights.begin());
  EXPECT_LE(RegionDepth(b.value(), hottest),
            RegionDepth(a.value(), hottest));
}

TEST(WeightedDTreeTest, SkewedExperimentEndToEnd) {
  const sub::Subdivision sub = test::RandomVoronoi(64, 49);
  Rng wrng(50);
  std::vector<double> weights = workload::ZipfWeights(64, 1.0, &wrng);
  DTree::Options o;
  o.packet_capacity = 128;
  o.access_weights = weights;
  auto tree_r = DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  bcast::ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 2000;
  opt.distribution = bcast::QueryDistribution::kWeightedRegion;
  opt.region_weights = weights;
  const sub::PointLocator oracle(sub);
  auto res = bcast::RunExperiment(tree_r.value(), sub, &oracle, opt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res.value().indexing_efficiency, 0.0);
}

// Strips side by side whose weights halve from left to right: every
// split isolates the leftmost strip, so the tree is a chain as deep as it
// has nodes, and the deepest strip takes one hop per node.
TEST(WeightedDTreeTest, ChainTreeProbesEveryRegion) {
  constexpr int kStrips = 12;
  std::vector<geom::Polygon> strips;
  DTree::Options o;
  o.packet_capacity = 64;
  for (int i = 0; i < kStrips; ++i) {
    strips.push_back(geom::Polygon(
        {{i + 0.0, 0.0}, {i + 1.0, 0.0}, {i + 1.0, 1.0}, {i + 0.0, 1.0}}));
    o.access_weights.push_back(std::ldexp(1.0, -i));
  }
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, kStrips, 1}, strips);
  ASSERT_TRUE(sub_r.ok()) << sub_r.status().ToString();
  auto tree_r = DTree::Build(sub_r.value(), o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const DTree& tree = tree_r.value();
  ASSERT_EQ(tree.height(), tree.num_nodes());
  bcast::ProbeTrace trace;
  for (int i = 0; i < kStrips; ++i) {
    const Point p{i + 0.5, 0.5};
    ASSERT_TRUE(tree.ProbeInto(p, &trace).ok()) << "strip " << i;
    EXPECT_EQ(trace.region, i);
    EXPECT_EQ(tree.Locate(p), i);
  }
}

TEST(QuerySamplerTest, WeightedSamplingFollowsWeights) {
  const sub::Subdivision sub = test::RandomVoronoi(4, 51);
  std::vector<double> weights{8.0, 1.0, 1.0, 0.0};
  auto sampler_r = bcast::QuerySampler::Create(
      sub, bcast::QueryDistribution::kWeightedRegion, weights);
  ASSERT_TRUE(sampler_r.ok());
  const sub::PointLocator oracle(sub);
  Rng rng(52);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++hits[oracle.Locate(sampler_r.value().Draw(&rng))];
  }
  EXPECT_EQ(hits[3], 0);             // zero-weight region never drawn
  EXPECT_GT(hits[0], 4 * hits[1]);   // 8x weight dominates
  EXPECT_GT(hits[1], 100);
}

TEST(QuerySamplerTest, RejectsBadWeights) {
  const sub::Subdivision sub = test::RandomVoronoi(4, 53);
  EXPECT_FALSE(bcast::QuerySampler::Create(
                   sub, bcast::QueryDistribution::kWeightedRegion, {1.0})
                   .ok());
  EXPECT_FALSE(bcast::QuerySampler::Create(
                   sub, bcast::QueryDistribution::kWeightedRegion,
                   {1.0, -1.0, 1.0, 1.0})
                   .ok());
  EXPECT_FALSE(bcast::QuerySampler::Create(
                   sub, bcast::QueryDistribution::kWeightedRegion,
                   {0.0, 0.0, 0.0, 0.0})
                   .ok());
}

}  // namespace
}  // namespace dtree::core
