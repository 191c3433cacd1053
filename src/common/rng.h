// Deterministic pseudo-random number generation.
//
// All randomized components (workload generators, the randomized
// incremental trapezoidal map, query streams) take an explicit generator
// so that every experiment in the repository is reproducible from a seed.
// The distributions are written once, in BasicRng, over two engines:
//
//  * Rng = BasicRng<internal::Mt19937_64>: 312 words of state and a
//    seeding run of ~156 serial steps before the first draw. It serves
//    streams whose set-up is spread over many draws.
//  * StreamRng = BasicRng<internal::SplitMix64Engine>: one word of state
//    and nothing to set up; output i of the stream seeded s is
//    SplitMix64(s + i * gamma), one add and one mix per draw. It serves
//    the streams keyed per query or per session, which draw a handful of
//    values each and are created by the million.
//
// Stream families. Sharded consumers never share a generator: each draws
// from ForStream(key, id), and the fault processes from
// StreamRng(MixStream(MixStream(fault seed, query stream), sub-stream)).
// Within one key the id ranges below cannot overlap for any reachable
// index (int attempts, cycles and passes; fleet query counters q < 2^32),
// which RngTest.StreamFamiliesAreDisjoint asserts:
//
//   key                      id                       draws         engine
//   seed                     s in [0, 64)             experiment    Rng
//                                                     shard s:
//                                                     points,
//                                                     arrivals
//   seed                     kMobilityStreamBase + s  shard s's     Rng
//                                                     mobility walk
//   FleetClientKey(seed, c)  FleetJoinStream() = 0    session c's   StreamRng
//     = MixStream(seed, c)                            join time
//                            3q + 1                   query q's     StreamRng
//                                                     point
//                            3q + 2                   query q's     StreamRng
//                                                     schedule
//                                                     (think, churn,
//                                                     re-join)
//                            3q + 3                   query q's fault key,
//                                                     MixStream(key, 3q + 3)
//                                                     (FleetQueryLossStream)
//                            kMobilityStreamBase + q  query q's     StreamRng
//                                                     mobility walk
//   MixStream(loss or        LossProcess::            the probe's   StreamRng
//     corruption seed,         kProbeStream = 0       reads
//     query stream)          AttemptStream(k) = k + 1 restart k     StreamRng
//                            FallbackStream(c)        fallback-     StreamRng
//                              = 2^32 + c             scan cycle c
//                            NoIndexStream(p)         indexless     StreamRng
//                              = 2^33 + p             pass p
//
// kMobilityStreamBase = 2^40 (workload/mobility.h). The query stream of a
// fault process is the global query index in RunExperiment and
// FleetQueryLossStream in a fleet. Datasets, the trap-tree's shuffle and
// every bench tool's own streams are seeded Rngs outside this table.

#ifndef DTREE_COMMON_RNG_H_
#define DTREE_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dtree {
namespace internal {

/// SplitMix64's output step (Steele, Lea & Flood, "Fast splittable
/// pseudorandom number generators", OOPSLA 2014): adds the golden gamma,
/// then applies the finalizer. Bijective, with avalanche-quality mixing
/// even for adjacent inputs like stream ids 0, 1, 2, ...
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t SplitMix64(uint64_t z) {
  z += kSplitMix64Gamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64's generator: a Weyl sequence of step gamma, each value
/// mixed by SplitMix64. Output i of the engine seeded s is
/// SplitMix64(s + i * gamma), the published SplitMix64 sequence of seed s.
/// One word of state and no set-up, so a stream that draws a handful of
/// values costs a handful of mixes.
class SplitMix64Engine {
 public:
  explicit SplitMix64Engine(uint64_t seed) : x_(seed) {}

  uint64_t operator()() {
    const uint64_t z = x_;
    x_ += kSplitMix64Gamma;
    return SplitMix64(z);
  }

 private:
  uint64_t x_;
};

/// MT19937-64, the engine the C++ standard fully specifies as
/// std::mt19937_64 ([rand.eng.mers]): Mt19937_64(s) yields the same
/// sequence as std::mt19937_64(s). It seeds lazily. In the first block,
/// twist k < n - m reads only seed words k, k + 1 and k + m, so the
/// seeding recurrence runs just ahead of the outputs drawn so far, in
/// doubling chunks; a one-draw stream computes 157 seed words and one
/// twist where the std engine computes 312 and 312. The rest of the first
/// block, and every later block, twists as std does.
class Mt19937_64 {
 public:
  explicit Mt19937_64(uint64_t seed) { x_[0] = seed; }

  uint64_t operator()() {
    if (pos_ == ready_) Refill();
    uint64_t z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr int kN = 312;
  static constexpr int kM = 156;
  static constexpr uint64_t kA = 0xb5026f5aa96619e9ULL;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;

  /// New value of word k from the upper bit of word k, the lower 31 bits
  /// of word k + 1 and word k + m (indices mod n). kA is masked in, not
  /// selected by a branch on y's random low bit, which would mispredict
  /// on half the words.
  static uint64_t Twist(uint64_t xk, uint64_t xk1, uint64_t xkm) {
    const uint64_t y = (xk & kUpper) | (xk1 & ~kUpper);
    return xkm ^ (y >> 1) ^ (kA & (0 - (y & 1)));
  }

  void TwistLow(int begin, int end) {
    for (int k = begin; k < end; ++k) {
      x_[k] = Twist(x_[k], x_[k + 1], x_[k + kM]);
    }
  }

  /// Called when every twisted word has been drawn.
  void Refill() {
    constexpr int kLow = kN - kM;  // words whose twist reads x_[k + m]
    if (ready_ < kLow) {
      // First block: seed up to word end + m - 1, then twist [ready_, end).
      const int end = std::min(std::max(2 * ready_, 1), kLow);
      // The recurrence is one serial chain: carry it in registers, not
      // through a store and reload of x_[i - 1].
      int i = seeded_;
      uint64_t x = x_[i - 1];
      for (; i < end + kM; ++i) {
        x = 6364136223846793005ULL * (x ^ (x >> 62)) +
            static_cast<uint64_t>(i);
        x_[i] = x;
      }
      seeded_ = i;
      TwistLow(ready_, end);
      ready_ = end;
      return;
    }
    if (pos_ == kN) {  // a later block starts with its low words
      TwistLow(0, kLow);
      pos_ = 0;
    }
    for (int k = kLow; k < kN - 1; ++k) {
      x_[k] = Twist(x_[k], x_[k + 1], x_[k - kLow]);
    }
    x_[kN - 1] = Twist(x_[kN - 1], x_[0], x_[kM - 1]);
    ready_ = kN;
  }

  uint64_t x_[kN]{};
  int pos_ = 0;     ///< next word to temper and return
  int ready_ = 0;   ///< words [pos_, ready_) are twisted, not yet drawn
  int seeded_ = 1;  ///< seed words x_[0, seeded_) are computed
};

}  // namespace internal

/// Seeded generator with convenience samplers, over one of the two
/// engines above (the aliases Rng and StreamRng below). Every sequence is
/// pinned by goldens, so nothing here may depend on a standard library:
/// Mt19937_64 is the standard's fully specified mt19937_64, and the
/// distributions restate the algorithms of libstdc++ 12's
/// uniform_real_distribution (generate_canonical<double, 53>),
/// uniform_int_distribution (Lemire's nearly divisionless method) and
/// normal_distribution (Marsaglia's polar method), which recorded the
/// MT19937-64 goldens. Gaussian, and the fleet's exponential think time
/// (DrawExp in broadcast/fleet.cc), still call libm's log / log1p.
template <class Engine>
class BasicRng {
 public:
  explicit BasicRng(uint64_t seed) : engine_(seed) {}

  /// Independent stream derived from (seed, stream) with a SplitMix64
  /// finalizer, so sharded consumers (e.g. the parallel experiment driver)
  /// get decorrelated generators whose sequences depend only on the seed
  /// and the stream id — never on thread count or scheduling.
  static BasicRng ForStream(uint64_t seed, uint64_t stream) {
    return BasicRng(MixStream(seed, stream));
  }

  /// The stream-derivation mix itself, for components that key nested
  /// streams (e.g. the lossy channel's per-query, per-attempt loss
  /// processes): MixStream(MixStream(seed, query), attempt) yields
  /// decorrelated, reproducible sub-streams.
  static uint64_t MixStream(uint64_t seed, uint64_t stream) {
    return internal::SplitMix64(seed ^ internal::SplitMix64(stream));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    DTREE_DCHECK(lo <= hi);
    return Canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DTREE_DCHECK(lo <= hi);
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const uint64_t offset = range == UINT64_MAX ? engine_() : Below(range + 1);
    return static_cast<int64_t>(offset + static_cast<uint64_t>(lo));
  }

  /// Gaussian with the given mean and standard deviation. Each call draws
  /// a fresh polar pair and returns one of its values.
  double Gaussian(double mean, double stddev) {
    DTREE_DCHECK(stddev > 0.0);
    double x, y, r2;
    do {
      x = 2.0 * Canonical() - 1.0;
      y = 2.0 * Canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
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
  /// One draw scaled to [0, 1): u / 2^64, where rounding u to double may
  /// reach 1.0, which is clamped to the largest double below it. Both
  /// 32-bit halves convert exactly, so their sum rounds once, to double(u),
  /// without the sign branch of an unsigned 64-bit conversion.
  double Canonical() {
    const uint64_t u = engine_();
    const double c = (static_cast<double>(u >> 32) * 0x1p32 +
                      static_cast<double>(u & 0xffffffffULL)) *
                     0x1p-64;
    return c < 1.0 ? c : std::nextafter(1.0, 0.0);
  }

  /// Unbiased integer in [0, n), n > 0: Lemire's nearly divisionless
  /// method, rejecting the low products below 2^64 mod n.
  uint64_t Below(uint64_t n) {
    __extension__ using U128 = unsigned __int128;
    U128 product = U128{engine_()} * n;
    if (static_cast<uint64_t>(product) < n) {
      const uint64_t threshold = -n % n;
      while (static_cast<uint64_t>(product) < threshold) {
        product = U128{engine_()} * n;
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

  Engine engine_;
};

/// MT19937-64: datasets, the trap-tree's shuffle, RunExperiment's shard
/// streams and every caller outside the per-query families.
using Rng = BasicRng<internal::Mt19937_64>;
/// The counter-based stream: the per-query and per-session families of
/// the table above (fleet join, point, schedule and mobility streams, and
/// the loss and corruption processes).
using StreamRng = BasicRng<internal::SplitMix64Engine>;

}  // namespace dtree

#endif  // DTREE_COMMON_RNG_H_
