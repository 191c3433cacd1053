// Deterministic metric primitives: a log-bucketed Histogram, a min/max
// gauge, and a MetricsRegistry of named histograms.
//
// The bucket layout is fixed at compile time (kSubBuckets buckets per
// octave over [1, 2^kOctaves), plus an underflow and an overflow bucket),
// so BucketIndex is a pure function of the value and two histograms over
// the same samples hold identical counts no matter how the samples were
// split across shards. Merging adds integer counts — commutative and
// associative — so every count-derived statistic (percentiles, bucket
// tables) is shard-order-independent. The double-valued accumulators
// (sum) are NOT order-independent; consumers that need bit-identical
// means must merge shards in a fixed order, exactly like the drivers'
// shard-ordered merge (broadcast/experiment.h, MergeShards).
//
// There is deliberately no locking: the intended pattern is one private
// Histogram per shard, written single-threaded on the hot path, merged
// after the parallel section.

#ifndef DTREE_COMMON_METRICS_H_
#define DTREE_COMMON_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace dtree {

/// Fixed-layout log-bucketed histogram of non-negative samples.
///
/// Resolution is 2^(1/kSubBuckets) ≈ 9% relative error per bucket;
/// count, sum, min and max are tracked exactly, so Mean/Min/Max are
/// exact and only Percentile is bucket-approximate.
class Histogram {
 public:
  /// Buckets per power of two.
  static constexpr int kSubBuckets = 8;
  /// Octaves covered by the log range: values in [1, 2^kOctaves).
  static constexpr int kOctaves = 32;
  /// Bucket 0 holds v < 1 (including 0); the last bucket holds
  /// v >= 2^kOctaves.
  static constexpr int kNumBuckets = kOctaves * kSubBuckets + 2;

  /// Bucket index for a value; pure function of v, total order preserving.
  /// Negative and non-finite-below-1 values clamp into bucket 0, +inf and
  /// NaN into the overflow bucket.
  static int BucketIndex(double v);

  /// Inclusive lower / exclusive upper value bound of bucket i.
  static double BucketLower(int i);
  static double BucketUpper(int i);

  void Add(double v);

  /// Adds another histogram's samples. Counts merge order-independently;
  /// the sum (and therefore Mean) is order-dependent like any
  /// floating-point summation — merge shards in a fixed order when
  /// bit-identical means matter.
  void Merge(const Histogram& other);

  uint64_t TotalCount() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  uint64_t BucketCount(int i) const { return counts_[i]; }

  /// Approximate p-quantile, p in [0, 1]: the value at nearest rank
  /// ceil(p * count), linearly interpolated inside its bucket and clamped
  /// to the exact [Min, Max]. Derived from integer counts only, so it is
  /// identical for any shard merge order. Returns 0 on an empty
  /// histogram.
  double Percentile(double p) const;

  bool operator==(const Histogram&) const = default;

 private:
  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Min/max gauge over recorded values. Unlike a Histogram it keeps no
/// distribution, just the envelope, so it suits sampled instantaneous
/// quantities (queue depths, in-flight counts) where only the extremes
/// matter. Merging takes min/max, so its statistics are
/// merge-order-independent.
class MinMaxGauge {
 public:
  void Record(double v);
  void Merge(const MinMaxGauge& other);

  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  /// 0 when no value was recorded (like Histogram::Min/Max).
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named histograms, created on first use with stable pointers
/// (node-based map).
class MetricsRegistry {
 public:
  /// Returns the named histogram, creating it on first use.
  Histogram* histogram(const std::string& name);
  /// nullptr when the name was never written.
  const Histogram* FindHistogram(const std::string& name) const;

  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dtree

#endif  // DTREE_COMMON_METRICS_H_
