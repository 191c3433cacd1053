// Deterministic pseudo-random number generation.
//
// All randomized components (workload generators, the randomized
// incremental trapezoidal map, query streams) take an explicit Rng so that
// every experiment in the repository is reproducible from a seed.

#ifndef DTREE_COMMON_RNG_H_
#define DTREE_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace dtree {

/// Seeded 64-bit Mersenne-Twister wrapper with convenience samplers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Independent stream derived from (seed, stream) with a SplitMix64
  /// finalizer, so sharded consumers (e.g. the parallel experiment driver)
  /// get decorrelated generators whose sequences depend only on the seed
  /// and the stream id — never on thread count or scheduling.
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(MixStream(seed, stream));
  }

  /// The stream-derivation mix itself, for components that key nested
  /// streams (e.g. the lossy channel's per-query, per-attempt loss
  /// processes): MixStream(MixStream(seed, query), attempt) yields
  /// decorrelated, reproducible sub-streams.
  static uint64_t MixStream(uint64_t seed, uint64_t stream) {
    return SplitMix64(seed ^ SplitMix64(stream));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DTREE_DCHECK(lo <= hi);
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  /// SplitMix64 finalizer (Steele et al.); bijective, avalanche-quality
  /// mixing even for adjacent inputs like stream ids 0, 1, 2, ...
  static uint64_t SplitMix64(uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::mt19937_64 engine_;
};

}  // namespace dtree

#endif  // DTREE_COMMON_RNG_H_
