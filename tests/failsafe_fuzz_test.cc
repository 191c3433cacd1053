// Deterministic failure-injection fuzz for every air index's hardened
// wire reader — the D-tree's per-probe decoder and the four flat-arena
// builds (D-tree, trian-tree, trap-tree, r*-tree) — plus the shared CRC
// framing layer and node-pointer codec. Each index's packets are mutated
// (bit flips on framed and raw streams, truncation) for >= 10k seeded
// iterations; every decode must terminate within its budget and return a
// Status or a plain region id, and an arena's answer must be one of the
// map's regions — never crash, hang, or read out of bounds (the suite
// runs under ASan+UBSan in CI). The codec's own cases check
// NodeDiscovery's numbering and bounds and the writers' pointer-field
// range checks.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/arena.h"
#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/arena.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/arena.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/frame.h"
#include "common/rng.h"
#include "dtree/arena.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

using geom::Point;

constexpr int kFuzzIterations = 10000;
constexpr int kCapacity = 128;
constexpr int kRegions = 40;
constexpr uint64_t kFixtureSeed = 71;

/// Reader under test: (packets, framed, query, read_log) -> region.
using QueryFn = std::function<Result<int>(
    const bcast::PacketBuffer&, bool, const Point&, std::vector<int>*)>;

/// An arena's QueryFn: builds the arena from the (possibly mutated)
/// bytes, then probes it; the read log is the probe's packet list.
/// `build` maps (packets, framed) to Result<Arena>. Every decode checks
/// its data pointers against the map's region count, so an answer is
/// always one of the fixture's regions.
template <typename BuildFn>
QueryFn ArenaQuery(BuildFn build) {
  return [build](const bcast::PacketBuffer& pkts, bool framed,
                 const Point& p, std::vector<int>* read) -> Result<int> {
    auto arena = build(pkts, framed);
    if (!arena.ok()) return arena.status();
    bcast::ProbeTrace trace;
    DTREE_RETURN_IF_ERROR(arena.value().ProbeInto(p, &trace));
    EXPECT_LT(trace.region, kRegions);
    if (read != nullptr) *read = trace.packets;
    return trace.region;
  };
}

/// Clean-stream property: the hardened decoder answers exactly like the
/// in-memory structure away from region borders (f32 narrowing can flip
/// decisions only within ~1 ulp of a boundary).
void ExpectCleanRoundTrip(const sub::Subdivision& sub,
                          const bcast::PacketBuffer& packets,
                          const QueryFn& query,
                          const std::function<int(const Point&)>& locate,
                          uint64_t seed) {
  const auto frames = bcast::FramePackets(packets);
  Rng rng(seed);
  for (int q = 0; q < 200; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng, 1e-3);
    std::vector<int> read;
    auto raw = query(packets, false, p, &read);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_EQ(raw.value(), locate(p));
    auto framed = query(frames, true, p, nullptr);
    ASSERT_TRUE(framed.ok()) << framed.status().ToString();
    EXPECT_EQ(framed.value(), raw.value());
  }
}

/// A single bit flip in any packet the clean descent reads must surface
/// as kDataLoss through the CRC check (CRC-32 detects all 1-bit errors).
/// The bytes before the victim are clean, so the same descent (or, for a
/// baseline, the arena build, which verifies every packet it can reach)
/// enters the victim and must fail.
void ExpectSingleFlipDetected(const sub::Subdivision& sub,
                              const bcast::PacketBuffer& packets,
                              const QueryFn& query, uint64_t seed) {
  const auto frames = bcast::FramePackets(packets);
  Rng rng(seed);
  for (int q = 0; q < 100; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    std::vector<int> read;
    ASSERT_TRUE(query(frames, true, p, &read).ok());
    ASSERT_FALSE(read.empty());
    // Corrupt one packet on the clean read path.
    const int victim = read[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(read.size()) - 1))];
    auto mutated = frames;
    const int64_t bits = static_cast<int64_t>(mutated.packet_bytes()) * 8;
    bcast::FlipBit(&mutated, static_cast<size_t>(victim),
                   static_cast<size_t>(rng.UniformInt(0, bits - 1)));
    auto r = query(mutated, true, p, nullptr);
    ASSERT_FALSE(r.ok()) << "flip in packet " << victim << " went unnoticed";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
        << r.status().ToString();
    // The frame's own CRC, not only a decode check, catches the flip.
    EXPECT_EQ(bcast::VerifyFrame(mutated.packet(static_cast<size_t>(victim)),
                                 mutated.packet_bytes())
                  .code(),
              StatusCode::kDataLoss);
  }
}

/// The fuzz loop proper: mutated packets must never crash or hang the
/// decoder, and the packets-read log stays within the decode budget.
void RunFuzz(const sub::Subdivision& sub, const bcast::PacketBuffer& packets,
             const QueryFn& query, uint64_t seed) {
  const auto frames = bcast::FramePackets(packets);
  const geom::BBox& a = sub.service_area();
  Rng rng(seed);
  for (int it = 0; it < kFuzzIterations; ++it) {
    const bool framed = (it % 2) == 0;
    auto mutated = framed ? frames : packets;
    if (it % 10 == 9 && mutated.num_packets() > 1) {
      // Truncate the stream: dangling pointers must fail cleanly.
      const int64_t n = static_cast<int64_t>(mutated.num_packets());
      mutated = test::FirstPackets(
          mutated, 1 + static_cast<size_t>(rng.UniformInt(0, n - 2)));
    } else {
      const int flips = 1 + it % 8;
      for (int f = 0; f < flips; ++f) {
        const size_t pkt = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(mutated.num_packets()) - 1));
        const int64_t bits = static_cast<int64_t>(mutated.packet_bytes()) * 8;
        bcast::FlipBit(&mutated, pkt,
                       static_cast<size_t>(rng.UniformInt(0, bits - 1)));
      }
    }
    const Point p{rng.Uniform(a.min_x, a.max_x),
                  rng.Uniform(a.min_y, a.max_y)};
    std::vector<int> read;
    auto r = query(mutated, framed, p, &read);
    if (r.ok()) {
      // Under corruption any region id is acceptable; it just has to be a
      // plain value.
      EXPECT_GE(r.value(), 0);
    }
    // Termination stayed within the decode budget: the read log cannot
    // exceed budget many packet entries per decoded node/shape.
    EXPECT_LE(read.size(),
              static_cast<size_t>(bcast::DecodeBudget(mutated.num_packets())) *
                  (mutated.num_packets() + 1));
  }
}

class FailsafeFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sub_ = new sub::Subdivision(test::RandomVoronoi(kRegions, kFixtureSeed));
  }
  static void TearDownTestSuite() {
    delete sub_;
    sub_ = nullptr;
  }
  static sub::Subdivision* sub_;
};

sub::Subdivision* FailsafeFuzzTest::sub_ = nullptr;

// --- D-tree ----------------------------------------------------------------

struct DTreeFixture {
  core::DTree tree;
  bcast::PacketBuffer packets;

  static DTreeFixture Make(const sub::Subdivision& sub) {
    core::DTree::Options o;
    o.packet_capacity = kCapacity;
    core::DTree t = core::DTree::Build(sub, o).value();
    auto pkts = core::SerializeDTree(t).value();
    return DTreeFixture{std::move(t), std::move(pkts)};
  }
  QueryFn query() const {
    const bool et = tree.options().early_termination;
    return [et](const bcast::PacketBuffer& pkts, bool framed, const Point& p,
                std::vector<int>* read) {
      return core::QueryFromPackets(pkts, kCapacity, framed, et, p, read);
    };
  }
  QueryFn arena_query(int num_regions) const {
    const bool et = tree.options().early_termination;
    return ArenaQuery([et, num_regions](const bcast::PacketBuffer& pkts,
                                        bool framed) {
      return core::DTreeArena::Build(pkts, kCapacity, framed, et,
                                     num_regions);
    });
  }
};

TEST_F(FailsafeFuzzTest, DTreeCleanRoundTrip) {
  DTreeFixture f = DTreeFixture::Make(*sub_);
  ExpectCleanRoundTrip(*sub_, f.packets, f.query(),
                       [&](const Point& p) { return f.tree.Locate(p); }, 11);
}

TEST_F(FailsafeFuzzTest, DTreeSingleFlipDetected) {
  DTreeFixture f = DTreeFixture::Make(*sub_);
  ExpectSingleFlipDetected(*sub_, f.packets, f.query(), 12);
}

TEST_F(FailsafeFuzzTest, DTreeFuzz) {
  DTreeFixture f = DTreeFixture::Make(*sub_);
  RunFuzz(*sub_, f.packets, f.query(), 13);
}

TEST_F(FailsafeFuzzTest, DTreeArenaFuzz) {
  DTreeFixture f = DTreeFixture::Make(*sub_);
  RunFuzz(*sub_, f.packets, f.arena_query(sub_->NumRegions()), 14);
}

// --- trian-tree (Kirkpatrick) ----------------------------------------------

struct TrianFixture {
  baselines::TrianTree tree;
  bcast::PacketBuffer packets;
  std::vector<std::pair<int, size_t>> roots;

  static TrianFixture Make(const sub::Subdivision& sub) {
    baselines::TrianTree::Options o;
    o.packet_capacity = kCapacity;
    baselines::TrianTree t = baselines::TrianTree::Build(sub, o).value();
    auto pkts = t.SerializePackets().value();
    auto roots = t.RootLocations();
    return TrianFixture{std::move(t), std::move(pkts), std::move(roots)};
  }
  QueryFn query(int num_regions) const {
    return ArenaQuery([r = roots, num_regions](
                          const bcast::PacketBuffer& pkts, bool framed) {
      return baselines::TrianTreeArena::Build(pkts, kCapacity, framed, r,
                                              num_regions);
    });
  }
};

TEST_F(FailsafeFuzzTest, TrianTreeCleanRoundTrip) {
  TrianFixture f = TrianFixture::Make(*sub_);
  ExpectCleanRoundTrip(*sub_, f.packets, f.query(sub_->NumRegions()),
                       [&](const Point& p) { return f.tree.Locate(p); }, 21);
}

TEST_F(FailsafeFuzzTest, TrianTreeSingleFlipDetected) {
  TrianFixture f = TrianFixture::Make(*sub_);
  ExpectSingleFlipDetected(*sub_, f.packets, f.query(sub_->NumRegions()), 22);
}

TEST_F(FailsafeFuzzTest, TrianTreeFuzz) {
  TrianFixture f = TrianFixture::Make(*sub_);
  RunFuzz(*sub_, f.packets, f.query(sub_->NumRegions()), 23);
}

// --- trap-tree ---------------------------------------------------------------

struct TrapFixture {
  baselines::TrapMap map;
  bcast::PacketBuffer packets;

  static TrapFixture Make(const sub::Subdivision& sub) {
    baselines::TrapMap::Options o;
    o.packet_capacity = kCapacity;
    baselines::TrapMap m = baselines::TrapMap::Build(sub, o).value();
    auto pkts = m.SerializePackets().value();
    return TrapFixture{std::move(m), std::move(pkts)};
  }
  static QueryFn query(int num_regions) {
    return ArenaQuery([num_regions](const bcast::PacketBuffer& pkts,
                                    bool framed) {
      return baselines::TrapMapArena::Build(pkts, kCapacity, framed,
                                            num_regions);
    });
  }
};

TEST_F(FailsafeFuzzTest, TrapTreeCleanRoundTrip) {
  TrapFixture f = TrapFixture::Make(*sub_);
  ExpectCleanRoundTrip(*sub_, f.packets, f.query(sub_->NumRegions()),
                       [&](const Point& p) { return f.map.Locate(p); }, 31);
}

TEST_F(FailsafeFuzzTest, TrapTreeSingleFlipDetected) {
  TrapFixture f = TrapFixture::Make(*sub_);
  ExpectSingleFlipDetected(*sub_, f.packets, f.query(sub_->NumRegions()), 32);
}

TEST_F(FailsafeFuzzTest, TrapTreeFuzz) {
  TrapFixture f = TrapFixture::Make(*sub_);
  RunFuzz(*sub_, f.packets, f.query(sub_->NumRegions()), 33);
}

// --- r*-tree -----------------------------------------------------------------

struct RStarFixture {
  baselines::RStarTree tree;
  bcast::PacketBuffer packets;

  static RStarFixture Make(const sub::Subdivision& sub) {
    baselines::RStarTree::Options o;
    o.packet_capacity = kCapacity;
    baselines::RStarTree t = baselines::RStarTree::Build(sub, o).value();
    auto pkts = t.SerializePackets().value();
    return RStarFixture{std::move(t), std::move(pkts)};
  }
  static QueryFn query(int num_regions) {
    return ArenaQuery([num_regions](const bcast::PacketBuffer& pkts,
                                    bool framed) {
      return baselines::RStarArena::Build(pkts, kCapacity, framed,
                                          num_regions);
    });
  }
};

TEST_F(FailsafeFuzzTest, RStarCleanRoundTrip) {
  RStarFixture f = RStarFixture::Make(*sub_);
  ExpectCleanRoundTrip(*sub_, f.packets, f.query(sub_->NumRegions()),
                       [&](const Point& p) { return f.tree.Locate(p); }, 41);
}

TEST_F(FailsafeFuzzTest, RStarSingleFlipDetected) {
  RStarFixture f = RStarFixture::Make(*sub_);
  ExpectSingleFlipDetected(*sub_, f.packets, f.query(sub_->NumRegions()), 42);
}

TEST_F(FailsafeFuzzTest, RStarFuzz) {
  RStarFixture f = RStarFixture::Make(*sub_);
  RunFuzz(*sub_, f.packets, f.query(sub_->NumRegions()), 43);
}

// --- node-pointer codec ------------------------------------------------------

TEST(NodePointerCodecTest, DiscoveryNumbersOnFirstSightWithinItsBound) {
  constexpr int kCap = 64;
  const bcast::PacketBuffer packets(4, kCap);
  const auto ptr = [](int packet, size_t offset) {
    return bcast::EncodeNodePointer(packet, offset).value();
  };
  // Nodes of at least kCap bytes: 4 * 64 / 64 + 16 = 20 fit the cycle.
  bcast::NodeDiscovery discovery(packets, kCap, kCap);
  EXPECT_EQ(discovery.Intern(ptr(2, 10)).value(), 0u);
  EXPECT_EQ(discovery.Intern(ptr(0, 0)).value(), 1u);
  EXPECT_EQ(discovery.Intern(ptr(2, 10)).value(), 0u);  // seen: same number
  uint32_t next = 0;
  ASSERT_TRUE(discovery.Next(&next));
  EXPECT_EQ(next, ptr(2, 10));
  EXPECT_EQ(discovery.Intern(ptr(3, kCap - 1)).value(), 2u);
  ASSERT_TRUE(discovery.Next(&next));
  EXPECT_EQ(next, ptr(0, 0));
  ASSERT_TRUE(discovery.Next(&next));
  EXPECT_EQ(next, ptr(3, kCap - 1));
  EXPECT_FALSE(discovery.Next(&next));

  // A packet or an offset outside the stream is lost data.
  const Result<uint32_t> past_stream = discovery.Intern(ptr(4, 0));
  EXPECT_EQ(past_stream.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(past_stream.status().message(),
            "node pointer outside the packet stream");
  const Result<uint32_t> past_packet = discovery.Intern(ptr(1, kCap));
  EXPECT_EQ(past_packet.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(past_packet.status().message(),
            "node pointer offset outside the packet");

  // Fill the bound; one node more is lost data, and a node already seen
  // keeps its number.
  for (uint32_t k = 3; k < 20; ++k) {
    EXPECT_EQ(discovery.Intern(ptr(1, k)).value(), k);
  }
  const Result<uint32_t> one_more = discovery.Intern(ptr(1, 20));
  EXPECT_EQ(one_more.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(one_more.status().message(),
            "decoded node count exceeds what the cycle can hold");
  EXPECT_EQ(discovery.Intern(ptr(1, 19)).value(), 19u);
  int handed_out = 0;
  while (discovery.Next(&next)) ++handed_out;
  EXPECT_EQ(handed_out, 17);
}

TEST(NodePointerCodecTest, WritersRejectOffsetsPastTheTwelveBitField) {
  EXPECT_TRUE(bcast::EncodeNodePointer((1 << 19) - 1, 4095).ok());
  EXPECT_EQ(bcast::EncodeNodePointer(0, 4096).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bcast::EncodeNodePointer(1 << 19, 0).status().code(),
            StatusCode::kInvalidArgument);

  // At 8 KiB packets most nodes start past byte 4095 of their packet, which
  // the pointer's 12-bit offset field cannot name.
  constexpr int kWide = 8192;
  const sub::Subdivision sub = test::RandomVoronoi(400, kFixtureSeed);
  const auto expect_field_error = [](const Status& s, const char* family) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << family;
    EXPECT_NE(s.message().find("12-bit pointer field"), std::string::npos)
        << family << ": " << s.ToString();
  };
  core::DTree::Options dopt;
  dopt.packet_capacity = kWide;
  auto dtree = core::DTree::Build(sub, dopt);
  ASSERT_TRUE(dtree.ok()) << dtree.status().ToString();
  expect_field_error(core::SerializeDTree(dtree.value()).status(), "d-tree");
  baselines::TrapMap::Options topt;
  topt.packet_capacity = kWide;
  auto trap = baselines::TrapMap::Build(sub, topt);
  ASSERT_TRUE(trap.ok()) << trap.status().ToString();
  expect_field_error(trap.value().SerializePackets().status(), "trap-tree");
  baselines::TrianTree::Options kopt;
  kopt.packet_capacity = kWide;
  auto trian = baselines::TrianTree::Build(sub, kopt);
  ASSERT_TRUE(trian.ok()) << trian.status().ToString();
  expect_field_error(trian.value().SerializePackets().status(), "trian-tree");
}

// --- data buckets ------------------------------------------------------------

TEST(DataBucketFrameTest, RoundTripAndDetection) {
  const auto bucket = bcast::MakeDataBucketPackets(/*region=*/7,
                                                  /*size=*/1000, kCapacity);
  ASSERT_EQ(bucket.num_packets(), 8u);  // ceil(1000 / 128)
  ASSERT_EQ(bucket.packet_bytes(), static_cast<size_t>(kCapacity));
  for (size_t j = 0; j < 1000; ++j) {
    EXPECT_EQ(bucket.packet(j / kCapacity)[j % kCapacity],
              bcast::ExpectedDataBucketByte(7, j));
  }
  // Padding is zeroed.
  for (size_t j = 1000; j < 8 * kCapacity; ++j) {
    EXPECT_EQ(bucket.packet(j / kCapacity)[j % kCapacity], 0);
  }
  auto frames = bcast::FramePackets(bucket);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    EXPECT_OK(bcast::VerifyFrame(frames.packet(i), frames.packet_bytes()));
  }
  auto restored = bcast::UnframePackets(frames);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), bucket);
  // Any single-bit error in payload or trailer is caught.
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    const size_t victim = static_cast<size_t>(t) % frames.num_packets();
    auto mutated = frames;
    const int64_t bits = static_cast<int64_t>(mutated.packet_bytes()) * 8;
    bcast::FlipBit(&mutated, victim,
                   static_cast<size_t>(rng.UniformInt(0, bits - 1)));
    EXPECT_EQ(
        bcast::VerifyFrame(mutated.packet(victim), mutated.packet_bytes())
            .code(),
        StatusCode::kDataLoss);
  }
}

TEST(DataBucketFrameTest, LinearScanIdentifiesTheBucket) {
  // A fallback-scanning client recognizes its bucket purely from the
  // (CRC-verified) content: only region r's bucket matches r's expected
  // bytes, so the linear scan answers exactly like the indexed path.
  constexpr int kBuckets = 16;
  std::vector<bcast::PacketBuffer> channel;
  for (int r = 0; r < kBuckets; ++r) {
    channel.push_back(
        bcast::FramePackets(bcast::MakeDataBucketPackets(r, 512, kCapacity)));
  }
  for (int want = 0; want < kBuckets; ++want) {
    int found = -1;
    for (int r = 0; r < kBuckets; ++r) {
      auto payload = bcast::UnframePackets(channel[static_cast<size_t>(r)]);
      ASSERT_TRUE(payload.ok());
      bool match = true;
      for (size_t j = 0; j < 512 && match; ++j) {
        match = payload.value().packet(j / kCapacity)[j % kCapacity] ==
                bcast::ExpectedDataBucketByte(want, j);
      }
      if (match) {
        found = r;
        break;
      }
    }
    EXPECT_EQ(found, want);
  }
}

// --- multi-bit flips ---------------------------------------------------------

TEST(FrameMultiBitFlipTest, ExhaustiveDoubleFlipsNeverEscapeTheCrc) {
  // CRC-32 (poly 0x04C11DB7) has Hamming distance >= 4 at every frame
  // length this codebase broadcasts, so every 2-bit error must surface as
  // kDataLoss — zero escapes, counted exactly. Exhaustive over a small
  // frame keeps the pair count tractable (~46k for a 32-byte payload).
  bcast::PacketBuffer payload(1, 32);
  for (size_t i = 0; i < payload.packet_bytes(); ++i) {
    payload.packet(0)[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const auto frame = bcast::FramePackets(payload, /*epoch=*/9);
  const size_t bits = frame.packet_bytes() * 8;
  int escapes = 0;
  for (size_t a = 0; a + 1 < bits; ++a) {
    auto mutated = frame;
    bcast::FlipBit(&mutated, 0, a);
    for (size_t b = a + 1; b < bits; ++b) {
      bcast::FlipBit(&mutated, 0, b);
      if (bcast::VerifyFrame(mutated.packet(0), mutated.packet_bytes())
              .code() != StatusCode::kDataLoss) {
        ++escapes;
      }
      bcast::FlipBit(&mutated, 0, b);  // restore to the single-flip base
    }
  }
  EXPECT_EQ(escapes, 0);
}

TEST(FrameMultiBitFlipTest, RandomDoubleAndTripleFlipsNeverEscapeTheCrc) {
  // Randomized 2- and 3-bit flips on a broadcast-sized frame (kCapacity
  // payload + trailer): still within the CRC's Hamming-distance-4
  // guarantee, so every mutation must be caught — and caught as
  // corruption (kDataLoss), never misread as a version skew, even when
  // the flips land in the epoch stamp and an epoch check is armed.
  bcast::PacketBuffer payload(1, kCapacity);
  for (size_t i = 0; i < payload.packet_bytes(); ++i) {
    payload.packet(0)[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const auto frame = bcast::FramePackets(payload, /*epoch=*/9);
  const int64_t bits = static_cast<int64_t>(frame.packet_bytes()) * 8;
  Rng rng(91);
  int escapes = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    const int flips = 2 + it % 2;
    int64_t picked[3] = {-1, -1, -1};
    int chosen = 0;
    while (chosen < flips) {
      const int64_t bit = rng.UniformInt(0, bits - 1);
      bool dup = false;
      for (int j = 0; j < chosen; ++j) dup = dup || picked[j] == bit;
      if (!dup) picked[chosen++] = bit;
    }
    auto mutated = frame;
    for (int j = 0; j < flips; ++j) {
      bcast::FlipBit(&mutated, 0, static_cast<size_t>(picked[j]));
    }
    if (bcast::VerifyFrame(mutated.packet(0), mutated.packet_bytes())
            .code() != StatusCode::kDataLoss) {
      ++escapes;
    }
    auto r = bcast::UnframePackets(mutated, /*expected_epoch=*/9);
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
        << "flips=" << flips << " it=" << it;
  }
  EXPECT_EQ(escapes, 0);
}

// --- zero-payload frames -----------------------------------------------------

TEST(ZeroPayloadFrameTest, TrailerOnlyFramesRoundTripButCarryNoBytes) {
  const bcast::PacketBuffer packets(3, 0);
  auto frames = bcast::FramePackets(packets, /*epoch=*/4);
  ASSERT_EQ(frames.num_packets(), 3u);
  ASSERT_EQ(frames.packet_bytes(), bcast::kFrameOverheadBytes);
  for (size_t i = 0; i < frames.num_packets(); ++i) {
    EXPECT_OK(bcast::VerifyFrame(frames.packet(i), frames.packet_bytes(), 4));
    EXPECT_EQ(bcast::FrameEpoch(frames.packet(i), frames.packet_bytes()), 4);
  }
  auto restored = bcast::UnframePackets(frames, /*expected_epoch=*/4);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), packets);
}

TEST(ZeroPayloadFrameTest, PacketReaderRejectsZeroCapacityOnFirstRead) {
  // Regression: a reader over a zero-payload stream must fail with
  // kDataLoss on the very first read instead of walking into the
  // epoch/CRC trailer and handing the decoder framing bytes as payload.
  const bcast::PacketBuffer packets(2, 0);
  const auto frames = bcast::FramePackets(packets, /*epoch=*/9);
  for (int capacity : {0, -1, -128}) {
    std::vector<int> read;
    bcast::PacketReader reader(frames, capacity, /*framed=*/true,
                               /*packet=*/0, /*offset=*/0, &read);
    uint16_t v = 0xbeef;
    Status s = reader.ReadU16(&v);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_TRUE(read.empty());  // no packet was ever entered
    EXPECT_EQ(v, 0xbeef);       // the output was never written
  }
  // Unframed zero-capacity streams are rejected identically.
  std::vector<int> read;
  bcast::PacketReader raw(packets, /*capacity=*/0, /*framed=*/false,
                          /*packet=*/0, /*offset=*/0, &read);
  uint16_t v = 0;
  EXPECT_EQ(raw.ReadU16(&v).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(read.empty());
}

}  // namespace
}  // namespace dtree
