// Failure-injection tests for the D-tree wire format: a client decoding
// corrupted or truncated packet streams must fail with a Status (or, for
// payload-only corruption, misroute gracefully) — never crash or loop.

#include <algorithm>

#include "broadcast/frame.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::core {
namespace {

using bcast::FramePackets;
using bcast::PacketBuffer;
using bcast::UnframePackets;
using bcast::VerifyFrame;
using geom::Point;

struct Fixture {
  sub::Subdivision sub;
  DTree tree;
  PacketBuffer packets;
  int capacity;
};

Fixture MakeFixture(int capacity) {
  sub::Subdivision s = test::RandomVoronoi(40, 71);
  DTree::Options o;
  o.packet_capacity = capacity;
  DTree t = DTree::Build(s, o).value();
  auto pkts = SerializeDTree(t).value();
  return Fixture{std::move(s), std::move(t), std::move(pkts), capacity};
}

TEST(SerializeRobustnessTest, EmptyStreamIsRejected) {
  const PacketBuffer packets;
  EXPECT_FALSE(
      QueryFromPackets(packets, 64, false, true, Point{1, 1}, nullptr).ok());
}

TEST(SerializeRobustnessTest, TruncatedStreamFailsCleanly) {
  Fixture f = MakeFixture(64);
  // Drop the tail packets: pointers into them must produce OutOfRange /
  // Internal, never a crash.
  ASSERT_GT(f.packets.num_packets(), 2u);
  const PacketBuffer truncated = test::FirstPackets(f.packets, 1);
  Rng rng(1);
  int failures = 0;
  for (int q = 0; q < 200; ++q) {
    const Point p = test::UnambiguousQueryPoint(f.sub, &rng);
    auto r = QueryFromPackets(truncated, f.capacity, false, true, p, nullptr);
    if (!r.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);  // most descents need packets that are gone
}

TEST(SerializeRobustnessTest, BitFlipsNeverCrash) {
  Fixture f = MakeFixture(128);
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = f.packets;
    // Flip 1-4 random bytes anywhere in the stream.
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < flips; ++i) {
      uint8_t* pkt = corrupted.packet(static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(corrupted.num_packets()) - 1)));
      pkt[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(corrupted.packet_bytes()) - 1))] ^=
          static_cast<uint8_t>(rng.UniformInt(1, 255));
    }
    const Point p = test::UnambiguousQueryPoint(f.sub, &rng);
    // Any Status or any region id is acceptable; crashing or hanging is
    // not. (The decoder's hop guard bounds pointer loops.)
    auto r = QueryFromPackets(corrupted, f.capacity, false, true, p, nullptr);
    if (r.ok()) {
      // Region may be wrong under corruption, but must be a plain value.
      (void)r.value();
    }
  }
  SUCCEED();
}

TEST(SerializeRobustnessTest, ZeroPaddingTailIsInert) {
  // Padding bytes after the last node decode as bid 0 / header 0 only if
  // a pointer leads there — and no valid pointer does. Round-trip across
  // every capacity to make sure padding never interferes.
  for (int capacity : {64, 256, 2048}) {
    Fixture f = MakeFixture(capacity);
    Rng rng(3);
    for (int q = 0; q < 200; ++q) {
      const Point p = test::UnambiguousQueryPoint(f.sub, &rng, 1e-3);
      auto r = QueryFromPackets(f.packets, f.capacity, /*framed=*/false,
                                f.tree.options().early_termination, p,
                                nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value(), f.tree.Locate(p));
    }
  }
}

TEST(SerializeRobustnessTest, DecodeWithoutEarlyTermination) {
  // The ablation configuration round-trips too (no RMC/LMC block except
  // where bounds are unrecoverable from the partition).
  const sub::Subdivision sub = test::ClusteredVoronoi(60, 72);
  DTree::Options o;
  o.packet_capacity = 64;
  o.early_termination = false;
  auto tree_r = DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  auto packets_r = SerializeDTree(tree_r.value());
  ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();
  Rng rng(4);
  for (int q = 0; q < 300; ++q) {
    const geom::Point p = test::UnambiguousQueryPoint(sub, &rng, 1e-3);
    std::vector<int> read;
    auto r = QueryFromPackets(packets_r.value(), 64, false, false, p, &read);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), tree_r.value().Locate(p));
    auto trace = tree_r.value().Probe(p);
    ASSERT_TRUE(trace.ok());
    EXPECT_EQ(read, trace.value().packets);
  }
}

TEST(SerializeRobustnessTest, FramedRoundTrip) {
  Fixture f = MakeFixture(128);
  const auto frames = FramePackets(f.packets);
  ASSERT_EQ(frames.num_packets(), f.packets.num_packets());
  EXPECT_EQ(frames.packet_bytes(),
            static_cast<size_t>(f.capacity) + bcast::kFrameOverheadBytes);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    EXPECT_OK(VerifyFrame(frames.packet(i), frames.packet_bytes()));
  }
  auto unframed = UnframePackets(frames);
  ASSERT_TRUE(unframed.ok());
  EXPECT_EQ(unframed.value(), f.packets);

  Rng rng(5);
  for (int q = 0; q < 200; ++q) {
    const Point p = test::UnambiguousQueryPoint(f.sub, &rng, 1e-3);
    std::vector<int> read_framed, read_raw;
    auto fr = QueryFromPackets(frames, f.capacity, /*framed=*/true,
                               f.tree.options().early_termination, p,
                               &read_framed);
    auto rr = QueryFromPackets(f.packets, f.capacity, /*framed=*/false,
                               f.tree.options().early_termination, p,
                               &read_raw);
    ASSERT_TRUE(fr.ok()) << fr.status().ToString();
    ASSERT_TRUE(rr.ok());
    EXPECT_EQ(fr.value(), rr.value());
    EXPECT_EQ(fr.value(), f.tree.Locate(p));
    EXPECT_EQ(read_framed, read_raw);
  }
}

TEST(SerializeRobustnessTest, CorruptedFramesAlwaysReturnNonOk) {
  // With every frame corrupted, the CRC catches the very first packet the
  // decoder touches: no query may return OK, whatever byte was hit.
  Fixture f = MakeFixture(128);
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    auto frames = FramePackets(f.packets);
    for (size_t i = 0; i < frames.num_packets(); ++i) {
      frames.packet(i)[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(frames.packet_bytes()) - 1))] ^=
          static_cast<uint8_t>(rng.UniformInt(1, 255));
    }
    const Point p = test::UnambiguousQueryPoint(f.sub, &rng);
    auto r = QueryFromPackets(frames, f.capacity, true, true, p, nullptr);
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(UnframePackets(frames).ok());
  }
}

TEST(SerializeRobustnessTest, SingleCorruptFrameDetectedWhenRead) {
  // Corrupt one random frame: a query either avoids that packet entirely
  // and answers correctly, or touches it and must fail — silent misroutes
  // through a corrupted packet are exactly what the CRC exists to prevent.
  Fixture f = MakeFixture(64);
  const auto clean = FramePackets(f.packets);
  Rng rng(7);
  int detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto frames = clean;
    const int victim = static_cast<int>(
        rng.UniformInt(0, static_cast<int64_t>(frames.num_packets()) - 1));
    frames.packet(static_cast<size_t>(victim))[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frames.packet_bytes()) - 1))] ^=
        static_cast<uint8_t>(rng.UniformInt(1, 255));
    const Point p = test::UnambiguousQueryPoint(f.sub, &rng, 1e-3);
    std::vector<int> read;
    auto r = QueryFromPackets(frames, f.capacity, /*framed=*/true,
                              f.tree.options().early_termination, p, &read);
    if (r.ok()) {
      EXPECT_EQ(r.value(), f.tree.Locate(p));
      for (int pkt : read) EXPECT_NE(pkt, victim);
    } else {
      ++detected;
    }
  }
  EXPECT_GT(detected, 0);  // packet 0 is read by every query
}

TEST(SerializeRobustnessTest, MalformedFramesRejected) {
  EXPECT_FALSE(VerifyFrame(nullptr, 0).ok());
  const uint8_t stub[] = {1, 2, 3};  // shorter than the trailer
  EXPECT_FALSE(VerifyFrame(stub, sizeof(stub)).ok());
  Fixture f = MakeFixture(64);
  const PacketBuffer frames = FramePackets(f.packets);
  // Frames one byte short: the wrong length surfaces as DataLoss, not a
  // bad read.
  PacketBuffer truncated(frames.num_packets(), frames.packet_bytes() - 1);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    std::copy_n(frames.packet(i), truncated.packet_bytes(),
                truncated.packet(i));
  }
  auto r = QueryFromPackets(truncated, f.capacity, true, true, Point{1, 1},
                            nullptr);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(UnframePackets(truncated).ok());
  // Raw (unframed) packets handed to the framed decoder fail the same way.
  EXPECT_FALSE(QueryFromPackets(f.packets, f.capacity, true, true,
                                Point{1, 1}, nullptr)
                   .ok());
}

}  // namespace
}  // namespace dtree::core
