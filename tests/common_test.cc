// Tests for the common substrate: Status/Result, byte serialization, RNG.

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <set>

#include "broadcast/fleet.h"
#include "broadcast/loss.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "workload/mobility.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fail_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_EQ(fail_through().code(), StatusCode::kNotFound);
  auto pass_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(pass_through().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::OutOfRange("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(BytesTest, RoundTripAllWidths) {
  ByteWriter w;
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutF32(3.25f);  // binary32 0x40500000
  w.PutF32(-1e-8f);  // binary32 0xb22bcc77
  const std::vector<uint8_t> want = {0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde,
                                     0x00, 0x00, 0x50, 0x40, 0x77, 0xcc,
                                     0x2b, 0xb2};
  EXPECT_EQ(w.bytes(), want);
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU16(0x0102);
  w.PutU32(0x03040506u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x02);
  EXPECT_EQ(b[1], 0x01);
  EXPECT_EQ(b[2], 0x06);
  EXPECT_EQ(b[5], 0x03);
}

TEST(BytesTest, CheckedU16NarrowingAtTheBoundary) {
  ByteWriter w;
  EXPECT_TRUE(w.PutU16Checked(0, "zero").ok());
  EXPECT_TRUE(w.PutU16Checked(0xffff, "max").ok());  // largest value that fits
  EXPECT_EQ(w.size(), 4u);
  // One past the boundary: rejected and nothing written — the old bare
  // static_cast would have silently truncated 0x10000 to 0.
  const Status s = w.PutU16Checked(0x10000, "node id");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("node id"), std::string::npos);
  const std::vector<uint8_t> want = {0x00, 0x00, 0xff, 0xff};
  EXPECT_EQ(w.bytes(), want);
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC check value: crc32("123456789") == 0xcbf43926.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const std::vector<uint8_t> zeros(4, 0);
  EXPECT_EQ(Crc32(zeros), 0x2144df1cu);  // crc32 of four zero bytes
  // Any single-byte change must alter the checksum.
  std::vector<uint8_t> tweaked = zeros;
  tweaked[2] = 1;
  EXPECT_NE(Crc32(tweaked), Crc32(zeros));
}

TEST(RngTest, MixStreamDecorrelatesAdjacentStreams) {
  // Adjacent (seed, stream) pairs must land far apart; equal inputs agree.
  EXPECT_EQ(Rng::MixStream(42, 7), Rng::MixStream(42, 7));
  std::set<uint64_t> keys;
  for (uint64_t s = 0; s < 100; ++s) {
    keys.insert(Rng::MixStream(42, s));
    keys.insert(Rng::MixStream(43, s));
  }
  EXPECT_EQ(keys.size(), 200u);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(9), b(9), c(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  }
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) != c.UniformInt(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
    const int64_t k = rng.UniformInt(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(12);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  EXPECT_EQ(std::set<int>(v.begin(), v.end()).size(), 50u);
}

TEST(RngTest, EngineKnownAnswer) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  internal::Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// Literal outputs of one seeded generator's samplers, called in this
/// order: Uniform ×5, UniformInt ×4, Gaussian ×3, then a shuffle.
struct DistributionWant {
  uint64_t seed;
  double uniform[5];
  int64_t uniform_int[4];
  double gaussian[3];
  std::vector<int> shuffled;
};

template <class Engine>
void ExpectDistributionKnownAnswers(const DistributionWant& w) {
  SCOPED_TRACE(w.seed);
  BasicRng<Engine> rng(w.seed);
  EXPECT_EQ(rng.Uniform(0.0, 1.0), w.uniform[0]);
  EXPECT_EQ(rng.Uniform(0.0, 1.0), w.uniform[1]);
  EXPECT_EQ(rng.Uniform(0.0, 1.0), w.uniform[2]);
  EXPECT_EQ(rng.Uniform(-2.5, 7.5), w.uniform[3]);
  EXPECT_EQ(rng.Uniform(1e6, 1e6 + 1), w.uniform[4]);
  EXPECT_EQ(rng.UniformInt(0, 9), w.uniform_int[0]);
  EXPECT_EQ(rng.UniformInt(-1000, 1000), w.uniform_int[1]);
  EXPECT_EQ(rng.UniformInt(0, int64_t{1} << 40), w.uniform_int[2]);
  EXPECT_EQ(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()),
            w.uniform_int[3]);
  EXPECT_EQ(rng.Gaussian(0.0, 1.0), w.gaussian[0]);
  EXPECT_EQ(rng.Gaussian(10.0, 2.5), w.gaussian[1]);
  EXPECT_EQ(rng.Gaussian(-3.0, 0.01), w.gaussian[2]);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  EXPECT_EQ(v, w.shuffled);
}

TEST(RngTest, DistributionKnownAnswers) {
  // Recorded with std::mt19937_64 and libstdc++ 12's distributions, the
  // generator every golden was pinned with; checked on any library.
  const DistributionWant wants[] = {
      {42,
       {0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1, 0x1.81192cfe1cbcfp-1,
        -0x1.232455849af3cp+0, 0x1.e8481ce79451dp+19},
       {0, 149, 409994361407, -4171286573692093258},
       {-0x1.36cb73053c008p-5, 0x1.dd7c1a46e3c93p+3, -0x1.7e9d60c0bf4eap+1},
       {2, 4, 1, 5, 7, 8, 0, 3, 6, 9}},
      {Rng::MixStream(7, 3),
       {0x1.9c9323c4938a6p-2, 0x1.74c263ca9a11cp-1, 0x1.56208e8a18effp-1,
        0x1.6f9908f6d7e52p+1, 0x1.e84814c2115d9p+19},
       {0, 957, 314198337221, -7408553110510942696},
       {-0x1.83fe249e7b428p-2, 0x1.9660e74cb0155p+3, -0x1.7e2a657e2110cp+1},
       {1, 5, 3, 6, 4, 8, 7, 9, 0, 2}},
  };
  for (const DistributionWant& w : wants) {
    ExpectDistributionKnownAnswers<internal::Mt19937_64>(w);
  }
}

// A StreamRng is created for every fleet query and fault sub-stream; its
// point is that it holds a word or two, not MT19937-64's 312.
static_assert(sizeof(StreamRng) <= 2 * sizeof(uint64_t),
              "StreamRng must stay a few words");

TEST(RngTest, SplitMix64EngineKnownAnswers) {
  // The published SplitMix64 sequences of seeds 0 and 1234567.
  internal::SplitMix64Engine zero(0);
  EXPECT_EQ(zero(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(zero(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(zero(), 0x06c45d188009454fULL);
  internal::SplitMix64Engine engine(1234567);
  for (uint64_t want :
       {6457827717110365317ULL, 3203168211198807973ULL,
        9817491932198370423ULL, 4593380528125082431ULL,
        16408922859458223821ULL}) {
    EXPECT_EQ(engine(), want);
  }
  // Output i of stream (key, id) is SplitMix64(MixStream(key, id) + i γ).
  const uint64_t start = StreamRng::MixStream(2003, 17);
  internal::SplitMix64Engine stream(start);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(stream(),
              internal::SplitMix64(start + i * internal::kSplitMix64Gamma))
        << "output " << i;
  }
}

TEST(RngTest, StreamRngDistributionKnownAnswers) {
  // Recorded once from StreamRng; the same samplers over SplitMix64Engine.
  const DistributionWant wants[] = {
      {42,
       {0x1.7bae644c5fd6ep-1, 0x1.477f199d93379p-3, 0x1.1d499d5c4c3e8p-2,
        0x1.e241a7ed1dd9cp-1, 0x1.e84801378b0b4p+19},
       {8, -563, 880304058015, -2952751159242293803},
       {-0x1.3fa3947de61c7p+0, 0x1.2493f1c281c75p+4, -0x1.7d558471fde53p+1},
       {7, 9, 1, 6, 5, 4, 8, 3, 0, 2}},
      {StreamRng::MixStream(7, 3),
       {0x1.8101f8973e682p-1, 0x1.5820ff15a5759p-2, 0x1.10692665772ebp-2,
        0x1.74aa36aabb9b8p+0, 0x1.e8480676d76fbp+19},
       {8, 751, 1008017708454, -520174708637332240},
       {0x1.a40fb6ba47c38p-1, 0x1.b580854ed863ap+3, -0x1.7f260cb3cb60dp+1},
       {1, 0, 2, 6, 7, 4, 5, 3, 9, 8}},
  };
  for (const DistributionWant& w : wants) {
    ExpectDistributionKnownAnswers<internal::SplitMix64Engine>(w);
  }
}

#ifdef __GLIBCXX__
// The reference Rng restates: std::mt19937_64 and a fresh libstdc++
// distribution per draw, the calls that recorded every golden (so
// normal_distribution's second polar value is always dropped).
class LibstdcxxRng {
 public:
  explicit LibstdcxxRng(uint64_t seed) : engine_(seed) {}
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

 private:
  std::mt19937_64 engine_;
};

TEST(RngTest, EngineMatchesLibstdcxx) {
  // 1,000 outputs cover every lazily seeded chunk of the first block and
  // the block boundaries at 312, 624 and 936.
  for (uint64_t s = 0; s < 2000; ++s) {
    const uint64_t seed = Rng::MixStream(2003, s);
    internal::Mt19937_64 engine(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(engine(), ref()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngTest, DistributionsMatchLibstdcxx) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // UniformInt ranges: one value, a negative lo, power-of-two sizes 2^8
  // and 2^63, the full int64 range (the raw draw), and a size of
  // 3 * 2^62 + 1 that rejects about a quarter of its draws.
  const int64_t kIntRanges[][2] = {{0, 0},       {-1000, 999}, {0, 255},
                                   {-8, 7},      {0, kMax},    {kMin, kMax},
                                   {kMin, int64_t{1} << 62}};
  constexpr int kIntCases = static_cast<int>(std::size(kIntRanges));
  constexpr int kCases = kIntCases + 5;
  for (uint64_t s = 0; s < 2000; ++s) {
    const uint64_t seed = Rng::MixStream(1996, s);
    Rng rng(seed);
    LibstdcxxRng ref(seed);
    // 1..400 interleaved calls, about 1..600 engine draws: streams end
    // on both sides of 1, 155-157, 311-313 and later block boundaries.
    const int calls = 1 + static_cast<int>(s % 400);
    for (int i = 0; i < calls; ++i) {
      const int c = static_cast<int>((s + static_cast<uint64_t>(i)) % kCases);
      double got = 0.0, want = 0.0;
      if (c < kIntCases) {
        const int64_t lo = kIntRanges[c][0], hi = kIntRanges[c][1];
        ASSERT_EQ(rng.UniformInt(lo, hi), ref.UniformInt(lo, hi))
            << "seed " << seed << " call " << i;
        continue;
      }
      switch (c - kIntCases) {
        case 0:
          got = rng.Uniform(0.0, 1.0), want = ref.Uniform(0.0, 1.0);
          break;
        case 1:
          got = rng.Uniform(-2.5, 7.5), want = ref.Uniform(-2.5, 7.5);
          break;
        case 2:
          got = rng.Uniform(3.25, 3.25), want = ref.Uniform(3.25, 3.25);
          break;
        case 3:
          got = rng.Gaussian(0.0, 1.0), want = ref.Gaussian(0.0, 1.0);
          break;
        default:
          got = rng.Gaussian(-3.0, 0.01), want = ref.Gaussian(-3.0, 0.01);
          break;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "seed " << seed << " call " << i << ": " << got << " vs "
          << want;
    }
  }
}
#endif  // __GLIBCXX__

TEST(RngTest, StreamFamiliesAreDisjoint) {
  // The stream-family table in common/rng.h. Under the experiment seed:
  // shards s < 64 (kQueryShards) sit far below the mobility family.
  EXPECT_LT(uint64_t{63}, workload::kMobilityStreamBase);

  // Under a fleet client key: join 0, then 3q+1, 3q+2 and the fault
  // key's 3q+3 for every uint32_t query counter q, all below the
  // mobility family kMobilityStreamBase + q.
  const uint64_t key = bcast::FleetClientKey(42, 7);
  EXPECT_EQ(bcast::FleetJoinStream(), 0u);
  for (uint64_t q : {uint64_t{0}, uint64_t{1}, uint64_t{12345},
                     uint64_t{std::numeric_limits<uint32_t>::max()}}) {
    SCOPED_TRACE(q);
    EXPECT_EQ(bcast::FleetPointStream(q) % 3, 1u);
    EXPECT_EQ(bcast::FleetScheduleStream(q) % 3, 2u);
    const uint64_t fault_id = 3 * q + 3;
    EXPECT_EQ(bcast::FleetQueryLossStream(key, q),
              Rng::MixStream(key, fault_id));
    EXPECT_EQ(fault_id % 3, 0u);
    EXPECT_GT(fault_id, bcast::FleetJoinStream());
    EXPECT_LT(fault_id, workload::kMobilityStreamBase);
    EXPECT_EQ(bcast::FleetMobilityStream(q),
              workload::kMobilityStreamBase + q);
  }

  // Under a fault process's query key: probe, then attempts, fallback
  // cycles and indexless passes for every non-negative int.
  using bcast::LossProcess;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  EXPECT_LT(LossProcess::kProbeStream, LossProcess::AttemptStream(0));
  EXPECT_LT(LossProcess::AttemptStream(kMaxInt),
            LossProcess::FallbackStream(0));
  EXPECT_LT(LossProcess::FallbackStream(kMaxInt),
            LossProcess::NoIndexStream(0));
  EXPECT_LT(LossProcess::NoIndexStream(0), LossProcess::NoIndexStream(kMaxInt));
}

}  // namespace
}  // namespace dtree
