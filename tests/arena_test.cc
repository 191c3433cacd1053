// Tests for the flat-arena probe engines (DESIGN.md §12).
//
// The D-tree's per-probe byte decoder (core::QueryFromPackets) is its
// arena's bit-identical oracle: for every query the arena must return the
// same region and the same packet list.
//
// Each baseline's arena is that family's only wire reader, so its cases
// check against ground truth instead: every region must equal
// brute-force PointLocator outside the kMergeEps * 100 border band, and
// each arena's outcomes (status code, region, packet list) must match one
// FNV-1a digest per input and family. The digests were recorded while
// per-probe wire decoders still asserted the same region — and, for the
// trap-tree and trian-tree, the same packet list — on every query.
//
// Corruption tests pin the safety contract: a framed arena build touches
// every packet through the CRC-verifying reader, so a flipped bit fails
// the build with kDataLoss — the degradation ladder's trigger — and the
// arena is never constructed over unverified bytes.
//
// The ProbeInto cases run all four trees and their four arenas: a probe
// into a used trace equals a probe into a new one, and concurrent probes
// reproduce the single-threaded outcomes.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kirkpatrick/arena.h"
#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/arena.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/arena.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/arena.h"
#include "broadcast/experiment.h"
#include "broadcast/frame.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dtree/arena.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

using geom::Point;

// Uniform points over the service area: the differential contract is
// bit-identity, so ambiguous near-border points are fair game — both
// sides must take exactly the same branch on them.
std::vector<Point> AreaQueries(const sub::Subdivision& sub, int n,
                               uint64_t seed) {
  Rng rng(seed);
  const geom::BBox& a = sub.service_area();
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(
        {rng.Uniform(a.min_x, a.max_x), rng.Uniform(a.min_y, a.max_y)});
  }
  return out;
}

// Points scattered across region borders: a uniform point on a random
// edge of a random region's cell, pushed along the edge normal by up to
// `reach` either way, kept when it stays inside the service area.
std::vector<Point> BorderQueries(const sub::Subdivision& sub, int n,
                                 double reach, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  while (static_cast<int>(out.size()) < n) {
    const geom::Polygon cell = sub.RegionPolygon(
        static_cast<int>(rng.UniformInt(0, sub.NumRegions() - 1)));
    Point a, b;
    cell.Edge(static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(cell.NumVertices()) - 1)),
              &a, &b);
    const double len = std::hypot(b.x - a.x, b.y - a.y);
    if (len == 0.0) continue;
    const double t = rng.Uniform(0.0, 1.0);
    const double d = rng.Uniform(-reach, reach);
    const Point p{a.x + t * (b.x - a.x) - d * (b.y - a.y) / len,
                  a.y + t * (b.y - a.y) + d * (b.x - a.x) / len};
    if (sub.service_area().Contains(p)) out.push_back(p);
  }
  return out;
}

// Compares the arena probe against an oracle outcome for one query.
// Either both succeed with the same region and packet list or both fail
// with the same status code.
void ExpectSameOutcome(const Result<int>& oracle,
                       const std::vector<int>& oracle_packets,
                       const Status& arena_st,
                       const bcast::ProbeTrace& trace, const Point& p) {
  if (!oracle.ok()) {
    ASSERT_FALSE(arena_st.ok())
        << "arena succeeded where the decoder failed at (" << p.x << ", "
        << p.y << "): " << oracle.status().ToString();
    EXPECT_EQ(static_cast<int>(oracle.status().code()),
              static_cast<int>(arena_st.code()))
        << oracle.status().ToString() << " vs " << arena_st.ToString();
    return;
  }
  ASSERT_TRUE(arena_st.ok())
      << "arena failed where the decoder succeeded at (" << p.x << ", "
      << p.y << "): " << arena_st.ToString();
  EXPECT_EQ(oracle.value(), trace.region)
      << "region mismatch at (" << p.x << ", " << p.y << ")";
  EXPECT_EQ(oracle_packets, trace.packets)
      << "packet-log mismatch at (" << p.x << ", " << p.y << ")";
}

// --- D-tree ---------------------------------------------------------------

void RunDTreeDifferential(const sub::Subdivision& sub, int capacity,
                          bool early_termination, int num_queries,
                          uint64_t seed) {
  core::DTree::Options o;
  o.packet_capacity = capacity;
  o.early_termination = early_termination;
  auto tree_r = core::DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  auto packets_r = core::SerializeDTree(tree_r.value());
  ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();
  auto arena_r = core::DTreeArena::Build(packets_r.value(), capacity,
                                         /*framed=*/false, early_termination,
                                         sub.NumRegions());
  ASSERT_TRUE(arena_r.ok()) << arena_r.status().ToString();
  const core::DTreeArena& arena = arena_r.value();

  std::vector<int> read;
  bcast::ProbeTrace trace;
  for (const Point& p : AreaQueries(sub, num_queries, seed)) {
    read.clear();
    const Result<int> oracle =
        core::QueryFromPackets(packets_r.value(), capacity, /*framed=*/false,
                               early_termination, p, &read);
    const Status st = arena.ProbeInto(p, &trace);
    ExpectSameOutcome(oracle, read, st, trace, p);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DTreeArenaTest, MatchesDecoderOnPaperDatasets) {
  auto sets_r = workload::MakePaperDatasets();
  ASSERT_TRUE(sets_r.ok()) << sets_r.status().ToString();
  for (const workload::Dataset& d : sets_r.value()) {
    SCOPED_TRACE(d.name);
    RunDTreeDifferential(d.subdivision, 128, /*early_termination=*/true,
                         2000, 101);
  }
}

TEST(DTreeArenaTest, MatchesDecoderWithoutEarlyTermination) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  RunDTreeDifferential(d_r.value().subdivision, 64,
                       /*early_termination=*/false, 2000, 102);
}

TEST(DTreeArenaTest, MatchesDecoderOnScaleDatasets) {
  for (auto dist : {workload::ScaleDistribution::kUniform,
                    workload::ScaleDistribution::kClustered}) {
    auto d_r = workload::MakeScaleDataset(5000, dist);
    ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
    SCOPED_TRACE(d_r.value().name);
    RunDTreeDifferential(d_r.value().subdivision, 256,
                         /*early_termination=*/true, 1000, 103);
  }
}

TEST(DTreeArenaTest, MatchesDecoderAtScale100k) {
  auto d_r =
      workload::MakeScaleDataset(100000, workload::ScaleDistribution::kUniform);
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  RunDTreeDifferential(d_r.value().subdivision, 256,
                       /*early_termination=*/true, 512, 104);
}

// The server-side arena's full contract, on PARK: it is bit-identical to
// the wire decoder everywhere, and matches DTree::Probe — region, packets
// and origins — wherever the point lies outside the kMergeEps * 100 band
// around region borders. Inside the band the two can differ, because the
// wire format stores coordinates as f32 while the in-memory tree keeps
// doubles. Uniform points almost never land there, so half the queries
// straddle the band on purpose.
TEST(DTreeArenaTest, MatchesDecoderEverywhereAndProbeOutsideTheBorderBand) {
  auto park_r = workload::MakeParkDataset();
  ASSERT_TRUE(park_r.ok()) << park_r.status().ToString();
  const sub::Subdivision& sub = park_r.value().subdivision;
  const double band = geom::kMergeEps * 100.0;
  for (int capacity : {64, 256, 1024}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    core::DTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = core::DTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    const core::DTree& tree = tree_r.value();
    auto packets_r = core::SerializeDTree(tree);
    ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();
    auto arena_r = core::BuildDTreeArenaIndex(tree);
    ASSERT_TRUE(arena_r.ok()) << arena_r.status().ToString();

    std::vector<Point> queries = AreaQueries(sub, 20000, 105);
    const std::vector<Point> border = BorderQueries(sub, 20000, 3 * band, 106);
    queries.insert(queries.end(), border.begin(), border.end());
    std::vector<int> read;
    bcast::ProbeTrace trace;
    int disagreements = 0;
    for (const Point& p : queries) {
      read.clear();
      const Result<int> wire = core::QueryFromPackets(
          packets_r.value(), capacity, /*framed=*/false,
          /*early_termination=*/true, p, &read);
      const Status st = arena_r.value().ProbeInto(p, &trace);
      ExpectSameOutcome(wire, read, st, trace, p);
      if (::testing::Test::HasFatalFailure()) return;

      const Result<bcast::ProbeTrace> memory = tree.Probe(p);
      ASSERT_TRUE(memory.ok()) << memory.status().ToString();
      const bcast::ProbeTrace& m = memory.value();
      if (m.region == trace.region && m.packets == trace.packets &&
          m.origins.size() == trace.origins.size() &&
          std::equal(m.origins.begin(), m.origins.end(),
                     trace.origins.begin(),
                     [](const bcast::ProbePacketOrigin& a,
                        const bcast::ProbePacketOrigin& b) {
                       return a.node == b.node && a.depth == b.depth;
                     })) {
        continue;
      }
      ++disagreements;
      EXPECT_LE(sub.DistanceToNearestBorder(p), band)
          << "arena and DTree::Probe differ at (" << p.x << ", " << p.y
          << ") outside the border band";
    }
    RecordProperty("probe_disagreements_cap" + std::to_string(capacity),
                   disagreements);
  }
}

// --- Baselines ------------------------------------------------------------

/// FNV-1a-64 over the little-endian bytes of 32-bit words: one digest of
/// a baseline arena's outcomes over a whole query set.
class OutcomeDigest {
 public:
  /// Status code, region and packet list of one probe.
  void Add(const Status& st, const bcast::ProbeTrace& trace) {
    Word(static_cast<uint32_t>(st.code()));
    Word(static_cast<uint32_t>(trace.region));
    Word(static_cast<uint32_t>(trace.packets.size()));
    for (int pkt : trace.packets) Word(static_cast<uint32_t>(pkt));
  }
  uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h_);
    return buf;
  }

 private:
  void Word(uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t h_ = 14695981039346656037ull;
};

/// One pinned digest per family for one (dataset, capacity, queries)
/// input. The values were recorded once and are never edited.
struct BaselineDigests {
  uint64_t trapmap;
  uint64_t kirkpatrick;
  uint64_t rstar;
};

// Brute-force point location at every query, or -1 inside the
// kMergeEps * 100 border band, where the wire's f32 coordinates may
// legitimately resolve to the neighbouring region.
std::vector<int> GroundTruth(const sub::Subdivision& sub,
                             const std::vector<Point>& queries) {
  const sub::PointLocator locator(sub);
  const double band = geom::kMergeEps * 100.0;
  std::vector<int> truth;
  truth.reserve(queries.size());
  for (const Point& p : queries) {
    truth.push_back(sub.DistanceToNearestBorder(p) > band ? locator.Locate(p)
                                                          : -1);
  }
  return truth;
}

// Probes one baseline arena at every query. Each probe must succeed with
// the ground-truth region outside the border band, and the outcomes must
// hash to the pinned digest `want`.
void ExpectArenaOutcomes(const bcast::FlatProbeEngine& arena,
                         const std::vector<Point>& queries,
                         const std::vector<int>& truth, uint64_t want) {
  OutcomeDigest digest;
  bcast::ProbeTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point& p = queries[i];
    const Status st = arena.ProbeInto(p, &trace);
    ASSERT_TRUE(st.ok()) << "at (" << p.x << ", " << p.y
                         << "): " << st.ToString();
    if (truth[i] >= 0) {
      EXPECT_EQ(trace.region, truth[i])
          << "arena and PointLocator differ at (" << p.x << ", " << p.y
          << ") outside the border band";
    }
    digest.Add(st, trace);
  }
  EXPECT_EQ(digest.value(), want) << "outcome digest " << digest.hex();
}

void CheckBaselineGroundTruth(const sub::Subdivision& sub, int capacity,
                              int num_queries, uint64_t seed,
                              const BaselineDigests& want) {
  const int n = sub.NumRegions();
  const std::vector<Point> queries = AreaQueries(sub, num_queries, seed);
  const std::vector<int> truth = GroundTruth(sub, queries);

  {
    SCOPED_TRACE("trapmap");
    baselines::TrapMap::Options o;
    o.packet_capacity = capacity;
    auto map_r = baselines::TrapMap::Build(sub, o);
    ASSERT_TRUE(map_r.ok()) << map_r.status().ToString();
    auto pk_r = map_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok()) << pk_r.status().ToString();
    auto ar_r = baselines::TrapMapArena::Build(pk_r.value(), capacity,
                                               /*framed=*/false, n);
    ASSERT_TRUE(ar_r.ok()) << ar_r.status().ToString();
    ExpectArenaOutcomes(ar_r.value(), queries, truth, want.trapmap);
  }
  {
    SCOPED_TRACE("kirkpatrick");
    baselines::TrianTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = baselines::TrianTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    auto pk_r = tree_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok()) << pk_r.status().ToString();
    const auto roots = tree_r.value().RootLocations();
    auto ar_r = baselines::TrianTreeArena::Build(pk_r.value(), capacity,
                                                 /*framed=*/false, roots, n);
    ASSERT_TRUE(ar_r.ok()) << ar_r.status().ToString();
    ExpectArenaOutcomes(ar_r.value(), queries, truth, want.kirkpatrick);
  }
  {
    SCOPED_TRACE("rstar");
    baselines::RStarTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = baselines::RStarTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    auto pk_r = tree_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok()) << pk_r.status().ToString();
    auto ar_r = baselines::RStarArena::Build(pk_r.value(), capacity,
                                             /*framed=*/false, n);
    ASSERT_TRUE(ar_r.ok()) << ar_r.status().ToString();
    ExpectArenaOutcomes(ar_r.value(), queries, truth, want.rstar);
  }
}

TEST(BaselineArenaTest, MatchGroundTruthOnPaperDataset) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  CheckBaselineGroundTruth(d_r.value().subdivision, 128, 1500, 201,
                           {0x8edce3d012d89d9bull, 0xbc0d0d7fe25514dbull,
                            0xe09d7e45663a4eadull});
}

TEST(BaselineArenaTest, MatchGroundTruthOnClustered) {
  const sub::Subdivision sub = test::ClusteredVoronoi(400, 17);
  CheckBaselineGroundTruth(sub, 256, 1000, 202,
                           {0x70354364fa705087ull, 0xde78cfa03ec1f668ull,
                            0xff0f75659add6560ull});
}

TEST(BaselineArenaTest, MatchGroundTruthOnScaleDatasets) {
  const BaselineDigests want[] = {
      {0xd2b245c5a7ac4af8ull, 0x9127f3aea96c651aull, 0x05754cb6f7bd476aull},
      {0x2bc252674fdf6fcbull, 0x760cc51a628b9b45ull, 0xac24897c6f820aeeull}};
  int i = 0;
  for (auto dist : {workload::ScaleDistribution::kUniform,
                    workload::ScaleDistribution::kClustered}) {
    auto d_r = workload::MakeScaleDataset(5000, dist);
    ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
    SCOPED_TRACE(d_r.value().name);
    CheckBaselineGroundTruth(d_r.value().subdivision, 256, 500, 203,
                             want[i++]);
  }
}

// --- ProbeInto on every index ---------------------------------------------

template <typename Index>
void AddIndex(Result<Index> r,
              std::vector<std::unique_ptr<bcast::AirIndex>>* out) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  out->push_back(std::make_unique<Index>(std::move(r).value()));
}

// The four trees (d-tree, trap-tree, trian-tree, r*-tree) and then their
// four arenas, in that order. Only the D-tree pair fills probe origins.
std::vector<std::unique_ptr<bcast::AirIndex>> TreesAndArenas(
    const sub::Subdivision& sub, int capacity) {
  std::vector<std::unique_ptr<bcast::AirIndex>> out;
  core::DTree::Options dopt;
  dopt.packet_capacity = capacity;
  baselines::TrapMap::Options topt;
  topt.packet_capacity = capacity;
  baselines::TrianTree::Options kopt;
  kopt.packet_capacity = capacity;
  baselines::RStarTree::Options ropt;
  ropt.packet_capacity = capacity;
  AddIndex(core::DTree::Build(sub, dopt), &out);
  AddIndex(baselines::TrapMap::Build(sub, topt), &out);
  AddIndex(baselines::TrianTree::Build(sub, kopt), &out);
  AddIndex(baselines::RStarTree::Build(sub, ropt), &out);
  if (out.size() != 4) return out;
  const int n = sub.NumRegions();
  AddIndex(core::BuildDTreeArenaIndex(
               static_cast<const core::DTree&>(*out[0])),
           &out);
  AddIndex(baselines::BuildTrapMapArenaIndex(
               static_cast<const baselines::TrapMap&>(*out[1]), n),
           &out);
  AddIndex(baselines::BuildTrianTreeArenaIndex(
               static_cast<const baselines::TrianTree&>(*out[2]), n),
           &out);
  AddIndex(baselines::BuildRStarArenaIndex(
               static_cast<const baselines::RStarTree&>(*out[3]), n),
           &out);
  return out;
}

std::string IndexLabel(const std::vector<std::unique_ptr<bcast::AirIndex>>& v,
                       size_t k) {
  return v[k]->name() + (k >= 4 ? " arena" : "");
}

// Every ProbeInto clears the caller's trace before filling it: probing B
// into a trace that still holds A's D-tree region, packets and origins
// gives exactly what probing B into a new trace gives. The baselines
// attribute no reads, so their origins come back empty.
TEST(ArenaProbeIntoTest, EveryIndexOverwritesAUsedTrace) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const auto indexes = TreesAndArenas(sub, 128);
  ASSERT_EQ(indexes.size(), 8u);
  const std::vector<Point> queries = AreaQueries(sub, 200, 302);
  for (size_t i = 0; i + 1 < queries.size(); ++i) {
    bcast::ProbeTrace used;
    ASSERT_OK(indexes[0]->ProbeInto(queries[i], &used));
    ASSERT_FALSE(used.origins.empty());
    for (size_t k = 0; k < indexes.size(); ++k) {
      SCOPED_TRACE(IndexLabel(indexes, k));
      bcast::ProbeTrace trace = used;
      ASSERT_OK(indexes[k]->ProbeInto(queries[i + 1], &trace));
      const Result<bcast::ProbeTrace> fresh = indexes[k]->Probe(queries[i + 1]);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(trace.region, fresh.value().region);
      EXPECT_EQ(trace.packets, fresh.value().packets);
      EXPECT_TRUE(trace.origins == fresh.value().origins);
      if (k % 4 != 0) {
        EXPECT_TRUE(trace.origins.empty());
      }
    }
  }
}

// --- Thread safety --------------------------------------------------------

// Every index is immutable after Build and ProbeInto keeps per-call state
// on the stack (or in thread_local scratch), so concurrent probes from
// 1/4/8 threads — each thread reusing one trace across all eight indexes —
// must reproduce the single-threaded outcomes exactly. The D-tree arena's
// single-threaded outcome is in turn its byte decoder's.
TEST(ArenaThreadTest, ConcurrentProbesMatchDecoder) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const int capacity = 128;
  const auto indexes = TreesAndArenas(sub, capacity);
  ASSERT_EQ(indexes.size(), 8u);
  const auto& tree = static_cast<const core::DTree&>(*indexes[0]);
  auto packets_r = core::SerializeDTree(tree);
  ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();

  // Single-threaded expectations, one row per index.
  const std::vector<Point> queries = AreaQueries(sub, 2048, 301);
  std::vector<std::vector<bcast::ProbeTrace>> expected(indexes.size());
  for (const Point& p : queries) {
    for (size_t k = 0; k < indexes.size(); ++k) {
      auto r = indexes[k]->Probe(p);
      ASSERT_TRUE(r.ok()) << IndexLabel(indexes, k) << ": "
                          << r.status().ToString();
      expected[k].push_back(std::move(r).value());
    }
    std::vector<int> read;
    auto d = core::QueryFromPackets(packets_r.value(), capacity,
                                    /*framed=*/false,
                                    tree.options().early_termination, p,
                                    &read);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(expected[4].back().region, d.value());
    EXPECT_EQ(expected[4].back().packets, read);
  }

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> mismatches(indexes.size());
    constexpr int kShards = 16;
    pool.ParallelFor(kShards, [&](int shard) {
      bcast::ProbeTrace trace;
      for (size_t i = static_cast<size_t>(shard); i < queries.size();
           i += kShards) {
        for (size_t k = 0; k < indexes.size(); ++k) {
          if (!indexes[k]->ProbeInto(queries[i], &trace).ok() ||
              !(trace == expected[k][i])) {
            mismatches[k].fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
    for (size_t k = 0; k < indexes.size(); ++k) {
      EXPECT_EQ(mismatches[k].load(), 0) << IndexLabel(indexes, k);
    }
  }
}

// --- CRC verification during build ---------------------------------------

// A framed build reads every packet through the CRC-verifying reader: a
// single flipped bit anywhere the build touches fails with kDataLoss (the
// degradation ladder's re-tune trigger), so an arena can never be
// constructed over corrupted frames.
TEST(ArenaCorruptionTest, FramedBuildRejectsFlippedBit) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const int capacity = 128;
  const int n = sub.NumRegions();

  // D-tree.
  {
    SCOPED_TRACE("dtree");
    core::DTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = core::DTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok());
    auto pk_r = core::SerializeDTree(tree_r.value());
    ASSERT_TRUE(pk_r.ok());
    auto frames = bcast::FramePackets(pk_r.value());
    ASSERT_TRUE(core::DTreeArena::Build(frames, capacity, /*framed=*/true,
                                        o.early_termination, n)
                    .ok());
    bcast::FlipBit(&frames, 0, 37);
    auto bad = core::DTreeArena::Build(frames, capacity, /*framed=*/true,
                                       o.early_termination, n);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(static_cast<int>(bad.status().code()),
              static_cast<int>(StatusCode::kDataLoss))
        << bad.status().ToString();
  }
  // Trap-tree.
  {
    SCOPED_TRACE("trapmap");
    baselines::TrapMap::Options o;
    o.packet_capacity = capacity;
    auto map_r = baselines::TrapMap::Build(sub, o);
    ASSERT_TRUE(map_r.ok());
    auto pk_r = map_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok());
    auto frames = bcast::FramePackets(pk_r.value());
    ASSERT_TRUE(baselines::TrapMapArena::Build(frames, capacity,
                                               /*framed=*/true, n)
                    .ok());
    bcast::FlipBit(&frames, 0, 11);
    auto bad = baselines::TrapMapArena::Build(frames, capacity,
                                              /*framed=*/true, n);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(static_cast<int>(bad.status().code()),
              static_cast<int>(StatusCode::kDataLoss))
        << bad.status().ToString();
  }
  // Trian-tree.
  {
    SCOPED_TRACE("kirkpatrick");
    baselines::TrianTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = baselines::TrianTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok());
    auto pk_r = tree_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok());
    const auto roots = tree_r.value().RootLocations();
    auto frames = bcast::FramePackets(pk_r.value());
    ASSERT_TRUE(baselines::TrianTreeArena::Build(frames, capacity,
                                                 /*framed=*/true, roots, n)
                    .ok());
    bcast::FlipBit(&frames, 0, 53);
    auto bad = baselines::TrianTreeArena::Build(frames, capacity,
                                                /*framed=*/true, roots, n);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(static_cast<int>(bad.status().code()),
              static_cast<int>(StatusCode::kDataLoss))
        << bad.status().ToString();
  }
  // R*-tree.
  {
    SCOPED_TRACE("rstar");
    baselines::RStarTree::Options o;
    o.packet_capacity = capacity;
    auto tree_r = baselines::RStarTree::Build(sub, o);
    ASSERT_TRUE(tree_r.ok());
    auto pk_r = tree_r.value().SerializePackets();
    ASSERT_TRUE(pk_r.ok());
    auto frames = bcast::FramePackets(pk_r.value());
    ASSERT_TRUE(baselines::RStarArena::Build(frames, capacity,
                                             /*framed=*/true, n)
                    .ok());
    bcast::FlipBit(&frames, 0, 29);
    auto bad = baselines::RStarArena::Build(frames, capacity,
                                            /*framed=*/true, n);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(static_cast<int>(bad.status().code()),
              static_cast<int>(StatusCode::kDataLoss))
        << bad.status().ToString();
  }
}

// A framed (CRC-verified) build must decode to the same arena as the
// unframed build: probing both over the same queries gives identical
// outcomes.
TEST(ArenaCorruptionTest, FramedBuildMatchesUnframed) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const int capacity = 128;
  core::DTree::Options o;
  o.packet_capacity = capacity;
  auto tree_r = core::DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok());
  auto pk_r = core::SerializeDTree(tree_r.value());
  ASSERT_TRUE(pk_r.ok());
  const auto frames = bcast::FramePackets(pk_r.value());
  auto plain_r = core::DTreeArena::Build(pk_r.value(), capacity,
                                         /*framed=*/false,
                                         o.early_termination,
                                         sub.NumRegions());
  ASSERT_TRUE(plain_r.ok());
  auto framed_r = core::DTreeArena::Build(frames, capacity, /*framed=*/true,
                                          o.early_termination,
                                          sub.NumRegions());
  ASSERT_TRUE(framed_r.ok());
  bcast::ProbeTrace a, b;
  for (const Point& p : AreaQueries(sub, 500, 401)) {
    ASSERT_OK(plain_r.value().ProbeInto(p, &a));
    ASSERT_OK(framed_r.value().ProbeInto(p, &b));
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.packets, b.packets);
  }
}

// --- Simulate byte-identity -----------------------------------------------

void ExpectResultsIdentical(const bcast::ExperimentResult& a,
                            const bcast::ExperimentResult& b) {
  EXPECT_EQ(a.index_name, b.index_name);
  EXPECT_EQ(a.packet_capacity, b.packet_capacity);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.index_packets, b.index_packets);
  EXPECT_EQ(a.index_bytes, b.index_bytes);
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.cycle_packets, b.cycle_packets);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.optimal_latency, b.optimal_latency);
  EXPECT_EQ(a.normalized_latency, b.normalized_latency);
  EXPECT_EQ(a.mean_tuning_index, b.mean_tuning_index);
  EXPECT_EQ(a.mean_tuning_total, b.mean_tuning_total);
  EXPECT_EQ(a.mean_tuning_noindex, b.mean_tuning_noindex);
  EXPECT_EQ(a.indexing_efficiency, b.indexing_efficiency);
  EXPECT_EQ(a.normalized_index_size, b.normalized_index_size);
  EXPECT_EQ(a.mean_retries, b.mean_retries);
  EXPECT_EQ(a.mean_lost_packets, b.mean_lost_packets);
  EXPECT_EQ(a.mean_corrupted_packets, b.mean_corrupted_packets);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_corrupted_packets, b.total_corrupted_packets);
  EXPECT_EQ(a.unrecoverable_queries, b.unrecoverable_queries);
  EXPECT_EQ(a.fallback_queries, b.fallback_queries);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.min_tuning_total, b.min_tuning_total);
  EXPECT_EQ(a.max_tuning_total, b.max_tuning_total);
  for (const char* name :
       {bcast::kLatencyHist, bcast::kTuningIndexHist,
        bcast::kTuningTotalHist, bcast::kRetriesHist,
        bcast::kLostPacketsHist, bcast::kCorruptedPacketsHist}) {
    SCOPED_TRACE(name);
    const Histogram* ha = a.metrics.FindHistogram(name);
    const Histogram* hb = b.metrics.FindHistogram(name);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
    EXPECT_EQ(ha->Sum(), hb->Sum());
    EXPECT_EQ(ha->Min(), hb->Min());
    EXPECT_EQ(ha->Max(), hb->Max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      ASSERT_EQ(ha->BucketCount(i), hb->BucketCount(i)) << "bucket " << i;
    }
  }
}

// The tentpole's end-to-end contract: RunExperiment (Simulate latency,
// tuning, retries, histograms — every bit) is identical whether probes go
// through DTree::Probe or the arena, including under a faulty channel
// where the retry/fallback ladder is active.
TEST(ArenaSimulateTest, DTreeExperimentByteIdenticalWithArena) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  core::DTree::Options o;
  o.packet_capacity = 128;
  auto tree_r = core::DTree::Build(sub, o);
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  auto arena_r = core::BuildDTreeArenaIndex(tree_r.value());
  ASSERT_TRUE(arena_r.ok()) << arena_r.status().ToString();

  // The ArenaIndex reports the tree's own identity.
  EXPECT_EQ(arena_r.value().name(), tree_r.value().name());
  EXPECT_EQ(arena_r.value().NumIndexPackets(),
            tree_r.value().NumIndexPackets());
  EXPECT_EQ(arena_r.value().IndexBytes(), tree_r.value().IndexBytes());
  EXPECT_EQ(arena_r.value().PacketCapacity(),
            tree_r.value().PacketCapacity());

  bcast::ExperimentOptions opt;
  opt.packet_capacity = 128;
  opt.num_queries = 4000;
  opt.seed = 42;
  opt.num_threads = 4;
  opt.loss.model = bcast::LossModel::kIid;
  opt.loss.loss_rate = 0.02;
  opt.loss.max_retries = 8;
  opt.loss.fallback_scan_cycles = 1;
  opt.loss.corruption.model = bcast::CorruptionModel::kIidBits;
  opt.loss.corruption.bit_error_rate = 1e-5;

  auto base_r = bcast::RunExperiment(tree_r.value(), sub, nullptr, opt);
  ASSERT_TRUE(base_r.ok()) << base_r.status().ToString();
  auto arena_res_r = bcast::RunExperiment(arena_r.value(), sub, nullptr, opt);
  ASSERT_TRUE(arena_res_r.ok()) << arena_res_r.status().ToString();
  ExpectResultsIdentical(base_r.value(), arena_res_r.value());
  EXPECT_GT(base_r.value().total_retries, 0);  // the ladder actually fired
}

// Baseline ArenaIndexes report the wrapped index's identity, so the
// experiment's size/layout columns are unchanged with the arena enabled.
TEST(ArenaSimulateTest, BaselineArenaIndexesReportBaseIdentity) {
  auto d_r = workload::MakeUniformDataset();
  ASSERT_TRUE(d_r.ok()) << d_r.status().ToString();
  const sub::Subdivision& sub = d_r.value().subdivision;
  const int n = sub.NumRegions();

  baselines::TrapMap::Options to;
  to.packet_capacity = 128;
  auto map_r = baselines::TrapMap::Build(sub, to);
  ASSERT_TRUE(map_r.ok());
  auto ta_r = baselines::BuildTrapMapArenaIndex(map_r.value(), n);
  ASSERT_TRUE(ta_r.ok()) << ta_r.status().ToString();
  EXPECT_EQ(ta_r.value().name(), map_r.value().name());
  EXPECT_EQ(ta_r.value().NumIndexPackets(), map_r.value().NumIndexPackets());
  EXPECT_EQ(ta_r.value().IndexBytes(), map_r.value().IndexBytes());

  baselines::TrianTree::Options ko;
  ko.packet_capacity = 128;
  auto kt_r = baselines::TrianTree::Build(sub, ko);
  ASSERT_TRUE(kt_r.ok());
  auto ka_r = baselines::BuildTrianTreeArenaIndex(kt_r.value(), n);
  ASSERT_TRUE(ka_r.ok()) << ka_r.status().ToString();
  EXPECT_EQ(ka_r.value().name(), kt_r.value().name());
  EXPECT_EQ(ka_r.value().NumIndexPackets(), kt_r.value().NumIndexPackets());

  baselines::RStarTree::Options ro;
  ro.packet_capacity = 128;
  auto rt_r = baselines::RStarTree::Build(sub, ro);
  ASSERT_TRUE(rt_r.ok());
  auto ra_r = baselines::BuildRStarArenaIndex(rt_r.value(), n);
  ASSERT_TRUE(ra_r.ok()) << ra_r.status().ToString();
  EXPECT_EQ(ra_r.value().name(), rt_r.value().name());
  EXPECT_EQ(ra_r.value().NumIndexPackets(), rt_r.value().NumIndexPackets());
}

}  // namespace
}  // namespace dtree
