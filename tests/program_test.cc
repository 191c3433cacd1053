// Tests for the byte-level broadcast program: the materialized cycle must
// be structurally sound, and a client session over raw frames must agree
// with the analytic channel simulator packet for packet.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "broadcast/channel.h"
#include "dtree/dtree.h"
#include "dtree/program.h"
#include "dtree/serialize.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::core {
namespace {

using geom::Point;

struct Rig {
  sub::Subdivision sub;
  DTree tree;
  bcast::BroadcastChannel channel;
  BroadcastProgram program;
};

Rig MakeRig(int n, int capacity, uint64_t seed, int m = 0) {
  sub::Subdivision s = test::RandomVoronoi(n, seed);
  DTree::Options o;
  o.packet_capacity = capacity;
  DTree t = DTree::Build(s, o).value();
  bcast::ChannelOptions copt;
  copt.packet_capacity = capacity;
  copt.m = m;
  bcast::BroadcastChannel ch =
      bcast::BroadcastChannel::Create(t.NumIndexPackets(), s.NumRegions(),
                                      copt)
          .value();
  BroadcastProgram prog = BroadcastProgram::Materialize(t, ch).value();
  return Rig{std::move(s), std::move(t), std::move(ch), std::move(prog)};
}

TEST(BroadcastProgramTest, FrameStructure) {
  Rig su = MakeRig(30, 128, 61);
  EXPECT_EQ(su.program.num_frames(), su.channel.cycle_packets());
  int index_frames = 0, data_frames = 0;
  for (int64_t i = 0; i < su.program.num_frames(); ++i) {
    const auto& f = su.program.frame(i);
    ASSERT_EQ(f.size(),
              BroadcastProgram::kHeaderSize + static_cast<size_t>(128));
    if (f[0] == BroadcastProgram::kIndexFrame) {
      ++index_frames;
    } else {
      ASSERT_EQ(f[0], BroadcastProgram::kDataFrame);
      ++data_frames;
    }
  }
  EXPECT_EQ(index_frames, su.channel.m() * su.channel.index_packets());
  EXPECT_EQ(data_frames, su.channel.data_packets());
}

TEST(BroadcastProgramTest, NextIndexPointersLandOnSegments) {
  Rig su = MakeRig(30, 128, 62);
  const int64_t cycle = su.program.num_frames();
  for (int64_t i = 0; i < cycle; ++i) {
    const auto& f = su.program.frame(i);
    uint32_t delta = 0;
    for (int b = 0; b < 4; ++b) {
      delta |= static_cast<uint32_t>(f[1 + b]) << (8 * b);
    }
    ASSERT_GT(delta, 0u);
    const int64_t target = (i + delta) % cycle;
    // The target must be the first frame of some index segment.
    bool is_segment_start = false;
    for (int j = 0; j < su.channel.m(); ++j) {
      if (su.channel.IndexSegmentStart(j) == target) is_segment_start = true;
    }
    EXPECT_TRUE(is_segment_start) << "frame " << i;
    // And it must be the *next* one: no segment start in between.
    for (int64_t k = i + 1; k < i + delta; ++k) {
      for (int j = 0; j < su.channel.m(); ++j) {
        EXPECT_NE(su.channel.IndexSegmentStart(j), k % cycle)
            << "frame " << i << " skipped a segment";
      }
    }
  }
}

TEST(BroadcastProgramTest, RejectsMismatchedChannel) {
  Rig su = MakeRig(30, 128, 63);
  bcast::ChannelOptions copt;
  copt.packet_capacity = 128;
  auto wrong = bcast::BroadcastChannel::Create(
      su.tree.NumIndexPackets() + 3, su.sub.NumRegions(), copt);
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(BroadcastProgram::Materialize(su.tree, wrong.value()).ok());
}

/// FNV-1a-64 over every byte of every frame of the cycle, in slot order.
uint64_t CycleDigest(const BroadcastProgram& program) {
  uint64_t h = 1469598103934665603ull;
  for (int64_t i = 0; i < program.num_frames(); ++i) {
    const auto& f = program.frame(i);
    for (uint8_t b : f) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// The cycle's bytes, pinned over a layout matrix: every frame header
// (type, next-index pointer, epoch stamp), index body and region-stamped
// data body. n = 1 is the empty-index program. Every index frame's body
// must also equal SerializeDTree's packet at the same offset in its
// segment.
TEST(BroadcastProgramTest, CycleBytesArePinned) {
  struct Pin {
    int n, capacity, m;
    uint16_t epoch;
    uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {1, 64, 0, 0, 0x90eec17ba7936613ull},
      {1, 64, 0, 513, 0xaeadafc6006a4b63ull},
      {1, 64, 3, 0, 0x90eec17ba7936613ull},
      {1, 64, 3, 513, 0xaeadafc6006a4b63ull},
      {1, 256, 0, 0, 0xb5469af353dcba67ull},
      {1, 256, 0, 513, 0xac28271fb1cb73c3ull},
      {1, 256, 3, 0, 0xb5469af353dcba67ull},
      {1, 256, 3, 513, 0xac28271fb1cb73c3ull},
      {1, 1024, 0, 0, 0x4b1230163d6d5a6full},
      {1, 1024, 0, 513, 0xc432b1a9480583e0ull},
      {1, 1024, 3, 0, 0x4b1230163d6d5a6full},
      {1, 1024, 3, 513, 0xc432b1a9480583e0ull},
      {30, 64, 0, 0, 0x865ac6e3ce0c78d3ull},
      {30, 64, 0, 513, 0x09c6fd312325a72full},
      {30, 64, 3, 0, 0xaf231af3a4579d05ull},
      {30, 64, 3, 513, 0xeaf2f656ebf6e70cull},
      {30, 256, 0, 0, 0xdcda2eb96e74a5a3ull},
      {30, 256, 0, 513, 0x0ea90a31272f8603ull},
      {30, 256, 3, 0, 0x4a2abfe6e0ad08bbull},
      {30, 256, 3, 513, 0x6f1d26d9964ab69full},
      {30, 1024, 0, 0, 0xe098b15f95d4ac41ull},
      {30, 1024, 0, 513, 0xf82172a5131d5183ull},
      {30, 1024, 3, 0, 0x8bbd4cb2c3891cbeull},
      {30, 1024, 3, 513, 0x364cbb8d6e1667feull},
      {400, 64, 0, 0, 0xfbbf5f5111b664bfull},
      {400, 64, 0, 513, 0x544ee3e34a0a6a03ull},
      {400, 64, 3, 0, 0x0eedaba584c62254ull},
      {400, 64, 3, 513, 0x9ee3628297998a3bull},
      {400, 256, 0, 0, 0xc872bb99052fdd43ull},
      {400, 256, 0, 513, 0xa1e45d7b9ca91823ull},
      {400, 256, 3, 0, 0xc8c5600433f2f4a6ull},
      {400, 256, 3, 513, 0x9d42d3f0527b42b8ull},
      {400, 1024, 0, 0, 0x43a078b64ed63f0eull},
      {400, 1024, 0, 513, 0x34743de135ddecb6ull},
      {400, 1024, 3, 0, 0x43a078b64ed63f0eull},
      {400, 1024, 3, 513, 0x34743de135ddecb6ull},
  };
  size_t next = 0;
  for (int n : {1, 30, 400}) {
    const sub::Subdivision s = test::RandomVoronoi(n, 4000 + n);
    for (int capacity : {64, 256, 1024}) {
      DTree::Options o;
      o.packet_capacity = capacity;
      const DTree t = DTree::Build(s, o).value();
      const bcast::PacketBuffer index = SerializeDTree(t).value();
      for (int m : {0, 3}) {
        bcast::ChannelOptions copt;
        copt.packet_capacity = capacity;
        copt.m = m;
        const bcast::BroadcastChannel ch =
            bcast::BroadcastChannel::Create(t.NumIndexPackets(),
                                            s.NumRegions(), copt)
                .value();
        for (uint16_t epoch : {0, 513}) {
          const Pin& pin = kPins[next++];
          ASSERT_EQ(pin.n, n);
          ASSERT_EQ(pin.capacity, capacity);
          ASSERT_EQ(pin.m, m);
          ASSERT_EQ(pin.epoch, epoch);
          SCOPED_TRACE("n " + std::to_string(n) + " capacity " +
                       std::to_string(capacity) + " m " + std::to_string(m) +
                       " epoch " + std::to_string(epoch));
          const BroadcastProgram prog =
              BroadcastProgram::Materialize(t, ch, epoch).value();
          ASSERT_EQ(prog.num_frames(), ch.cycle_packets());
          for (int j = 0; j < ch.m(); ++j) {
            for (int k = 0; k < ch.index_packets(); ++k) {
              const auto& f = prog.frame(ch.IndexSegmentStart(j) + k);
              ASSERT_EQ(f[0], BroadcastProgram::kIndexFrame);
              ASSERT_TRUE(std::equal(
                  f.begin() + BroadcastProgram::kHeaderSize, f.end(),
                  index.packet(static_cast<size_t>(k))))
                  << "segment " << j << " packet " << k;
            }
          }
          const uint64_t digest = CycleDigest(prog);
          char hex[24];
          std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
          EXPECT_EQ(digest, pin.digest) << "digest " << hex;
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kPins));
}

class ProgramAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

void ExpectClientMatchesSimulate(const Rig& su, const Point& p,
                                 double arrival) {
  SCOPED_TRACE("arrival " + std::to_string(arrival));
  auto session_r = su.program.RunClient(p, arrival);
  ASSERT_TRUE(session_r.ok()) << session_r.status().ToString();
  const auto& session = session_r.value();

  auto trace_r = su.tree.Probe(p);
  ASSERT_TRUE(trace_r.ok());
  auto outcome_r = su.channel.Simulate(trace_r.value(), arrival);
  ASSERT_TRUE(outcome_r.ok());
  const auto& outcome = outcome_r.value();

  EXPECT_EQ(session.region, trace_r.value().region);
  EXPECT_DOUBLE_EQ(session.latency, outcome.latency);
  EXPECT_EQ(session.tuning_index, outcome.tuning_index);
  EXPECT_EQ(session.tuning_data, outcome.tuning_data);
  EXPECT_EQ(session.tuning_total(), outcome.tuning_total());
}

TEST_P(ProgramAgreementTest, ByteClientMatchesAnalyticSimulator) {
  const auto [n, capacity, m] = GetParam();
  Rig su = MakeRig(n, capacity, 1234 + n + capacity, m);
  const int64_t cycle = su.channel.cycle_packets();
  Rng rng(64);
  for (int q = 0; q < 250; ++q) {
    const Point p = test::UnambiguousQueryPoint(su.sub, &rng, 1e-3);
    ExpectClientMatchesSimulate(
        su, p, rng.Uniform(0.0, static_cast<double>(cycle)));
  }
  // Integer arrivals: the packet starting exactly at the arrival is
  // already in flight, so a client tuning in one packet before an index
  // segment must still catch that segment's first packet as its probe.
  std::vector<double> arrivals = {0.0};
  for (int j = 0; j < su.channel.m(); ++j) {
    arrivals.push_back(static_cast<double>(
        (su.channel.IndexSegmentStart(j) - 1 + cycle) % cycle));
  }
  for (int q = 0; q < 20; ++q) {
    const Point p = test::UnambiguousQueryPoint(su.sub, &rng, 1e-3);
    for (double arrival : arrivals) {
      ExpectClientMatchesSimulate(su, p, arrival);
    }
  }
}

TEST(BroadcastProgramTest, RejectsBadArrivalsWithAStatus) {
  Rig su = MakeRig(30, 128, 64, 3);
  const double cycle = static_cast<double>(su.program.num_frames());
  const double inf = std::numeric_limits<double>::infinity();
  const Point p = su.sub.RegionPolygon(0).Centroid();
  for (double arrival :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, -1.0, cycle}) {
    auto r = su.program.RunClient(p, arrival);
    ASSERT_FALSE(r.ok()) << "arrival " << arrival;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "arrival " << arrival << ": " << r.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProgramAgreementTest,
    ::testing::Combine(::testing::Values(1, 10, 45, 90),
                       ::testing::Values(64, 256),
                       ::testing::Values(0, 1, 3)));

}  // namespace
}  // namespace dtree::core
