// Deterministic metric primitives: a log-bucketed Histogram, a Counter,
// and a MetricsRegistry of named instances.
//
// The bucket layout is fixed at compile time (kSubBuckets buckets per
// octave over [1, 2^kOctaves), plus an underflow and an overflow bucket),
// so BucketIndex is a pure function of the value and two histograms over
// the same samples hold identical counts no matter how the samples were
// split across shards. Merging adds integer counts — commutative and
// associative — so every count-derived statistic (percentiles, bucket
// tables) is shard-order-independent. The double-valued accumulators
// (sum) are NOT order-independent; consumers that need bit-identical
// means must merge shards in a fixed order, exactly like the experiment
// driver's partial-sum merge (see MetricsRegistry::MergeOrdered).
//
// There is deliberately no locking: the intended pattern is one private
// Histogram (or registry) per shard, written single-threaded on the hot
// path, merged after the parallel section.

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

/// Monotone event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  void Merge(const Counter& other) { value_ += other.value_; }
  uint64_t value() const { return value_; }

  bool operator==(const Counter&) const = default;

 private:
  uint64_t value_ = 0;
};

/// Named histograms and counters. Shards each own a registry, write it
/// lock-free, and the owner merges them with MergeOrdered in shard order
/// — the same determinism contract as the experiment driver's partial-sum
/// merge: integer statistics are order-independent by construction, and
/// the fixed merge order pins the floating-point sums too.
class MetricsRegistry {
 public:
  /// Returns the named instance, creating it on first use. Pointers stay
  /// valid for the registry's lifetime (node-based map).
  Histogram* histogram(const std::string& name);
  Counter* counter(const std::string& name);

  /// nullptr when the name was never written.
  const Histogram* FindHistogram(const std::string& name) const;
  const Counter* FindCounter(const std::string& name) const;

  /// Merges `other` into this registry, matching by name. Call once per
  /// shard, in shard order.
  void MergeOrdered(const MetricsRegistry& other);

  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, Counter>& counters() const { return counters_; }

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Counter> counters_;
};

}  // namespace dtree

#endif  // DTREE_COMMON_METRICS_H_
