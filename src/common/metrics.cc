#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dtree {

int Histogram::BucketIndex(double v) {
  if (!(v >= 1.0)) return 0;  // v < 1, negative, or NaN
  const double l = std::log2(v) * kSubBuckets;
  if (l >= kOctaves * kSubBuckets) return kNumBuckets - 1;
  return 1 + static_cast<int>(l);
}

double Histogram::BucketLower(int i) {
  DTREE_DCHECK(i >= 0 && i < kNumBuckets);
  if (i == 0) return 0.0;
  return std::exp2(static_cast<double>(i - 1) / kSubBuckets);
}

double Histogram::BucketUpper(int i) {
  DTREE_DCHECK(i >= 0 && i < kNumBuckets);
  if (i == 0) return 1.0;
  return std::exp2(static_cast<double>(i) / kSubBuckets);
}

void Histogram::Add(double v) {
  ++counts_[BucketIndex(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Nearest rank, 1-based; rank r means "the r-th smallest sample".
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (cum + counts_[i] >= rank) {
      // Interpolate linearly between the bucket bounds by rank position.
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(counts_[i]);
      const double lo = BucketLower(i);
      const double hi = i == kNumBuckets - 1 ? max_ : BucketUpper(i);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
    cum += counts_[i];
  }
  return max_;  // unreachable when counts are consistent
}

void MinMaxGauge::Record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
}

void MinMaxGauge::Merge(const MinMaxGauge& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  return &histograms_[name];
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace dtree
