// Histogram / MinMaxGauge / MetricsRegistry: fixed bucket layout, exact
// min/max/mean, bounded-relative-error percentiles, and shard-order
// independence of every count-derived statistic.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

TEST(HistogramTest, BucketLayoutIsFixedAndMonotone) {
  // Bucket 0 holds everything below 1 (including 0 and negatives).
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.999), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 1);
  // Index is non-decreasing in the value and bounds bracket the value.
  int prev = 0;
  for (double v = 0.5; v < 1e10; v *= 1.31) {
    const int i = Histogram::BucketIndex(v);
    EXPECT_GE(i, prev);
    EXPECT_LT(i, Histogram::kNumBuckets);
    if (i > 0 && i < Histogram::kNumBuckets - 1) {
      EXPECT_LE(Histogram::BucketLower(i), v);
      EXPECT_GT(Histogram::BucketUpper(i), v);
    }
    prev = i;
  }
  // Overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ExactCountSumMinMax) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  for (double v : {4.0, 1.5, 100.25, 0.0, 7.0}) h.Add(v);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 100.25);
  EXPECT_DOUBLE_EQ(h.Sum(), 112.75);
  EXPECT_DOUBLE_EQ(h.Mean(), 112.75 / 5);
}

TEST(HistogramTest, PercentileWithinBucketResolution) {
  Histogram h;
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform(1.0, 5000.0);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.5, 0.9, 0.95, 0.99}) {
    const double exact =
        values[static_cast<size_t>(std::ceil(p * values.size())) - 1];
    const double approx = h.Percentile(p);
    // One bucket is a factor of 2^(1/8) ≈ 1.0905 wide; interpolation
    // keeps the estimate within one bucket of the exact rank value.
    EXPECT_GT(approx, exact / 1.10) << "p=" << p;
    EXPECT_LT(approx, exact * 1.10) << "p=" << p;
  }
  EXPECT_EQ(h.Percentile(1.0), h.Max());
  // p=0 clamps to the first sample's bucket, never below the min.
  EXPECT_GE(h.Percentile(0.0), h.Min());
}

TEST(HistogramTest, MergeOrderDoesNotChangeCountStatistics) {
  // Split one sample stream across shards, merge the shards in two
  // different orders: every percentile must be identical (integer counts
  // commute), matching the experiment driver's determinism contract.
  Rng rng(1234);
  std::vector<Histogram> shards(8);
  Histogram reference;
  for (int i = 0; i < 50000; ++i) {
    const double v = std::exp(rng.Uniform(0.0, 12.0));
    shards[static_cast<size_t>(rng.UniformInt(0, 7))].Add(v);
    reference.Add(v);
  }
  Histogram fwd;
  for (const Histogram& s : shards) fwd.Merge(s);
  Histogram rev;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) rev.Merge(*it);

  EXPECT_EQ(fwd.TotalCount(), reference.TotalCount());
  EXPECT_EQ(fwd.Min(), rev.Min());
  EXPECT_EQ(fwd.Max(), rev.Max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(fwd.BucketCount(i), rev.BucketCount(i));
    ASSERT_EQ(fwd.BucketCount(i), reference.BucketCount(i));
  }
  for (double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(fwd.Percentile(p), rev.Percentile(p));
    EXPECT_EQ(fwd.Percentile(p), reference.Percentile(p));
  }
}

TEST(HistogramTest, MergeIntoEmptyAndFromEmpty) {
  Histogram a;
  Histogram empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.TotalCount(), 1u);
  EXPECT_EQ(a.Min(), 3.0);
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.TotalCount(), 1u);
  EXPECT_EQ(b.Min(), 3.0);
  EXPECT_EQ(b.Max(), 3.0);
}

TEST(HistogramTest, EmptyPercentileIsZeroAtEveryRank) {
  Histogram h;
  for (double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.Percentile(p), 0.0) << "p=" << p;
  }
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
}

TEST(HistogramTest, SingleSamplePercentilesCollapseToTheSample) {
  // With one sample, [min, max] pins every interpolated rank to the
  // sample itself — bitwise, not within bucket resolution.
  for (double v : {0.0, 1.0, 37.5, 1e9}) {
    Histogram h;
    h.Add(v);
    for (double p : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_EQ(h.Percentile(p), v) << "v=" << v << " p=" << p;
    }
    EXPECT_EQ(h.Min(), v);
    EXPECT_EQ(h.Max(), v);
    EXPECT_EQ(h.Mean(), v);
  }
}

TEST(MinMaxGaugeTest, EmptyReportsZeroEnvelope) {
  MinMaxGauge g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.count(), 0u);
  EXPECT_EQ(g.min(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
}

TEST(MinMaxGaugeTest, SingleSampleEnvelopeIsTheSample) {
  MinMaxGauge g;
  g.Record(-7.5);
  EXPECT_EQ(g.count(), 1u);
  EXPECT_EQ(g.min(), -7.5);
  EXPECT_EQ(g.max(), -7.5);
}

TEST(MinMaxGaugeTest, MergeWithEmptyAndOrderInvariance) {
  MinMaxGauge a;
  a.Record(2.0);
  a.Record(9.0);
  MinMaxGauge empty;
  a.Merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
  MinMaxGauge b;
  b.Merge(a);  // empty absorbs a's envelope exactly
  EXPECT_EQ(b.min(), 2.0);
  EXPECT_EQ(b.max(), 9.0);

  MinMaxGauge c;
  c.Record(-1.0);
  MinMaxGauge ab = a;
  ab.Merge(c);
  MinMaxGauge ba = c;
  ba.Merge(a);
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
  EXPECT_EQ(ab.count(), ba.count());
}

TEST(MetricsRegistryTest, CreatesOnDemandAndMergesByName) {
  MetricsRegistry shard0;
  MetricsRegistry shard1;
  shard0.histogram("latency")->Add(10.0);
  shard1.histogram("latency")->Add(20.0);
  shard1.histogram("tuning")->Add(5.0);

  MetricsRegistry merged;
  for (const MetricsRegistry* shard : {&shard0, &shard1}) {
    for (const auto& [name, h] : shard->histograms()) {
      merged.histogram(name)->Merge(h);
    }
  }
  ASSERT_NE(merged.FindHistogram("latency"), nullptr);
  EXPECT_EQ(merged.FindHistogram("latency")->TotalCount(), 2u);
  EXPECT_EQ(merged.FindHistogram("latency")->Min(), 10.0);
  EXPECT_EQ(merged.FindHistogram("latency")->Max(), 20.0);
  ASSERT_NE(merged.FindHistogram("tuning"), nullptr);
  EXPECT_EQ(merged.FindHistogram("tuning")->TotalCount(), 1u);
  EXPECT_EQ(merged.FindHistogram("absent"), nullptr);
}

TEST(MetricsRegistryTest, PointersStableAcrossInsertion) {
  MetricsRegistry reg;
  Histogram* a = reg.histogram("a");
  a->Add(1.0);
  for (int i = 0; i < 100; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    reg.histogram(name);
  }
  EXPECT_EQ(a, reg.histogram("a"));
  EXPECT_EQ(a->TotalCount(), 1u);
}

}  // namespace
}  // namespace dtree
