#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/air_index.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::core {
namespace {

using geom::Point;

DTree::Options Opts(int capacity) {
  DTree::Options o;
  o.packet_capacity = capacity;
  return o;
}

TEST(DTreeTest, SingleRegion) {
  std::vector<geom::Polygon> one{
      geom::Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}})};
  auto sub_r = sub::Subdivision::FromPolygons({0, 0, 1, 1}, one);
  ASSERT_TRUE(sub_r.ok());
  auto tree_r = DTree::Build(sub_r.value(), Opts(128));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const DTree& tree = tree_r.value();
  EXPECT_EQ(tree.num_nodes(), 0);
  EXPECT_EQ(tree.Locate({0.5, 0.5}), 0);
  auto trace_r = tree.Probe({0.5, 0.5});
  ASSERT_TRUE(trace_r.ok());
  EXPECT_EQ(trace_r.value().region, 0);
  EXPECT_TRUE(trace_r.value().packets.empty());
}

TEST(DTreeTest, RejectsTinyPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(8, 2);
  EXPECT_FALSE(DTree::Build(sub, Opts(8)).ok());
}

TEST(DTreeTest, StructureProperties) {
  const sub::Subdivision sub = test::RandomVoronoi(64, 9);
  auto tree_r = DTree::Build(sub, Opts(256));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const DTree& tree = tree_r.value();
  // Property 1: every node has exactly two children -> a binary tree over
  // N regions has N-1 internal nodes.
  EXPECT_EQ(tree.num_nodes(), 63);
  // Property 3: height-balanced; with balanced splits the height is
  // exactly ceil(log2 N).
  EXPECT_EQ(tree.height(), 6);
  // Every region appears exactly once as a data pointer.
  std::multiset<int> regions;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DTreeNode& n = tree.node(i);
    EXPECT_TRUE((n.left_node >= 0) != (n.left_region >= 0));
    EXPECT_TRUE((n.right_node >= 0) != (n.right_region >= 0));
    if (n.left_region >= 0) regions.insert(n.left_region);
    if (n.right_region >= 0) regions.insert(n.right_region);
  }
  EXPECT_EQ(regions.size(), 64u);
  EXPECT_EQ(std::set<int>(regions.begin(), regions.end()).size(), 64u);
}

TEST(DTreeTest, LocateMatchesBruteForce) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 4);
  auto tree_r = DTree::Build(sub, Opts(256));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(5);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(DTreeTest, LocateMatchesBruteForceClustered) {
  const sub::Subdivision sub = test::ClusteredVoronoi(150, 21);
  auto tree_r = DTree::Build(sub, Opts(128));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(6);
  for (int q = 0; q < 2000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(tree_r.value().Locate(p), oracle.Locate(p));
  }
}

TEST(DTreeTest, ProbeTracesAreValid) {
  const sub::Subdivision sub = test::RandomVoronoi(64, 10);
  for (int capacity : {64, 256, 2048}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    const DTree& tree = tree_r.value();
    Rng rng(11);
    for (int q = 0; q < 500; ++q) {
      const Point p = test::UnambiguousQueryPoint(sub, &rng);
      auto trace_r = tree.Probe(p);
      ASSERT_TRUE(trace_r.ok());
      EXPECT_OK(bcast::ValidateTrace(trace_r.value(),
                                     tree.NumIndexPackets(),
                                     sub.NumRegions()));
      EXPECT_EQ(trace_r.value().region, tree.Locate(p));
      EXPECT_FALSE(trace_r.value().packets.empty());
      // Tuning is bounded by reading every node on a root-to-leaf path in
      // full (loose sanity bound).
      EXPECT_LE(static_cast<int>(trace_r.value().packets.size()),
                tree.NumIndexPackets());
    }
  }
}

TEST(DTreeTest, PagingInvariants) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 12);
  for (int capacity : {64, 128, 512}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const DTree& tree = tree_r.value();
    size_t total = 0;
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const DTreeNode& n = tree.node(i);
      const bcast::NodeSpan& s = tree.span(i);
      ASSERT_GE(s.first_packet, 0);
      ASSERT_LT(s.last_packet(), tree.NumIndexPackets());
      EXPECT_EQ(s.num_packets > 1, n.large);
      EXPECT_LE(s.offset + 1, static_cast<size_t>(capacity));
      total += n.byte_size;
      // Forward-only: children never live in earlier packets.
      if (n.left_node >= 0) {
        EXPECT_GE(tree.span(n.left_node).first_packet, s.last_packet());
      }
      if (n.right_node >= 0) {
        EXPECT_GE(tree.span(n.right_node).first_packet, s.last_packet());
      }
    }
    EXPECT_EQ(total, tree.IndexBytes());
    EXPECT_LE(tree.IndexBytes(),
              static_cast<size_t>(tree.NumIndexPackets()) * capacity);
  }
}

TEST(DTreeTest, LeafMergingSavesPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(200, 13);
  DTree::Options merged = Opts(512);
  DTree::Options unmerged = Opts(512);
  unmerged.merge_leaf_packets = false;
  auto a = DTree::Build(sub, merged);
  auto b = DTree::Build(sub, unmerged);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a.value().NumIndexPackets(), b.value().NumIndexPackets());
  // Same answers either way.
  Rng rng(14);
  for (int q = 0; q < 300; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    EXPECT_EQ(a.value().Locate(p), b.value().Locate(p));
  }
}

TEST(DTreeTest, EarlyTerminationNeverIncreasesTuning) {
  const sub::Subdivision sub = test::ClusteredVoronoi(120, 15);
  DTree::Options with = Opts(64);
  DTree::Options without = Opts(64);
  without.early_termination = false;
  auto a = DTree::Build(sub, with);
  auto b = DTree::Build(sub, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng(16);
  long with_total = 0, without_total = 0;
  for (int q = 0; q < 1000; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    auto ta = a.value().Probe(p);
    auto tb = b.value().Probe(p);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    EXPECT_EQ(ta.value().region, tb.value().region);
    with_total += static_cast<long>(ta.value().packets.size());
    without_total += static_cast<long>(tb.value().packets.size());
  }
  EXPECT_LE(with_total, without_total);
}

TEST(DTreeSerializeTest, RoundTripQueries) {
  const sub::Subdivision sub = test::RandomVoronoi(80, 17);
  for (int capacity : {64, 128, 1024}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const DTree& tree = tree_r.value();
    auto packets_r = SerializeDTree(tree);
    ASSERT_TRUE(packets_r.ok()) << packets_r.status().ToString();
    const auto& packets = packets_r.value();
    ASSERT_EQ(static_cast<int>(packets.num_packets()), tree.NumIndexPackets());
    EXPECT_EQ(packets.packet_bytes(), static_cast<size_t>(capacity));
    Rng rng(18);
    for (int q = 0; q < 500; ++q) {
      // Keep a float32-safe margin from borders: coordinates are
      // serialized as binary32 on the air.
      const Point p = test::UnambiguousQueryPoint(sub, &rng, 1e-3);
      std::vector<int> read;
      auto region_r = QueryFromPackets(packets, capacity, /*framed=*/false,
                                       tree.options().early_termination, p,
                                       &read);
      ASSERT_TRUE(region_r.ok()) << region_r.status().ToString();
      EXPECT_EQ(region_r.value(), tree.Locate(p));
      // The byte-level client and the cost model agree on tuning.
      auto trace_r = tree.Probe(p);
      ASSERT_TRUE(trace_r.ok());
      EXPECT_EQ(read, trace_r.value().packets);
    }
  }
}

TEST(DTreeSerializeTest, SmallerPacketsMoreIndexPackets) {
  const sub::Subdivision sub = test::RandomVoronoi(100, 19);
  int prev_packets = 0;
  size_t prev_bytes = 0;
  for (int capacity : {2048, 1024, 512, 256, 128, 64}) {
    auto tree_r = DTree::Build(sub, Opts(capacity));
    ASSERT_TRUE(tree_r.ok());
    const int packets = tree_r.value().NumIndexPackets();
    if (prev_packets > 0) {
      EXPECT_GE(packets, prev_packets);
    }
    prev_packets = packets;
    if (prev_bytes > 0) {
      // Total bytes are nearly capacity-independent (node sizes only gain
      // the occasional RMC/LMC block).
      EXPECT_LT(tree_r.value().IndexBytes(), prev_bytes * 2);
    }
    prev_bytes = tree_r.value().IndexBytes();
  }
}

/// A polyline's points as text, closed loops rotated to their
/// lexicographically smallest rotation: the form in which two extents that
/// differ only in where each loop starts compare equal.
std::string CanonicalPolyline(const DTreeArena::Chain& pl) {
  std::vector<std::pair<double, double>> pts;
  for (const Point& p : pl.pts) pts.emplace_back(p.x, p.y);
  if (pl.closed && !pts.empty()) {
    std::vector<std::pair<double, double>> best = pts;
    for (size_t r = 1; r < pts.size(); ++r) {
      std::rotate(pts.begin(), pts.begin() + 1, pts.end());
      best = std::min(best, pts);
    }
    pts = std::move(best);
  }
  std::string out = pl.closed ? "closed" : "open";
  char buf[64];
  for (const auto& [x, y] : pts) {
    std::snprintf(buf, sizeof(buf), " %.17g,%.17g", x, y);
    out += buf;
  }
  return out;
}

/// FNV-1a over a D-tree's structure: every node's routing fields, child
/// links, depth, size and flags, its paging span, and its polylines with
/// loop start and loop order factored out (CanonicalPolyline, sorted).
uint64_t StructureDigest(const DTree& tree) {
  std::string text;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "root %d height %d packets %d bytes %zu\n",
                tree.root(), tree.height(), tree.NumIndexPackets(),
                tree.IndexBytes());
  text += buf;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DTreeNode& n = tree.node(i);
    const bcast::NodeSpan& s = tree.span(i);
    std::snprintf(buf, sizeof(buf),
                  "node %d dim %d near %.17g far %.17g left %d/%d right "
                  "%d/%d depth %d size %zu large %d explicit %d span %d+%d@%zu\n",
                  i, static_cast<int>(n.dim), n.near_bound, n.far_bound,
                  n.left_node, n.left_region, n.right_node, n.right_region,
                  n.depth, n.byte_size, n.large ? 1 : 0,
                  n.explicit_bounds ? 1 : 0, s.first_packet, s.num_packets,
                  s.offset);
    text += buf;
    std::vector<std::string> polylines;
    for (uint32_t k = 0; k < tree.layout().num_chains(i); ++k) {
      polylines.push_back(CanonicalPolyline(tree.layout().chain(i, k)));
    }
    std::sort(polylines.begin(), polylines.end());
    for (const std::string& pl : polylines) text += pl + "\n";
  }
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the D-tree's structure on the paper datasets and two SCALE maps.
// The digest ignores only where each polyline loop starts and the order
// of a node's polylines, so a change to the extent's loop order leaves it
// alone while any change to a split, a bound, a size or a packet moves it.
TEST(DTreeTest, StructureIsPinned) {
  struct Pin {
    const char* map;
    int capacity;
    uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"UNIFORM", 64, 0xf4eb3706adc1bf7aull},
      {"UNIFORM", 256, 0x605e4a09a2ef00bcull},
      {"UNIFORM", 1024, 0xe709f6d5ff6e29d8ull},
      {"HOSPITAL", 64, 0x53c16a1f6615d5b3ull},
      {"HOSPITAL", 256, 0x9a86ca6cc61de29aull},
      {"HOSPITAL", 1024, 0x1b1540e105b7bd88ull},
      {"PARK", 64, 0xf90ab8f35d5ce490ull},
      {"PARK", 256, 0x97be530d60cf5196ull},
      {"PARK", 1024, 0xdc60b29ef870fd02ull},
      {"SCALE-U5000", 256, 0xf09e2d85edb348deull},
      {"SCALE-C5000", 256, 0xc9dfc7af8c0a853cull},
  };
  std::vector<workload::Dataset> maps = workload::MakePaperDatasets().value();
  maps.push_back(workload::MakeScaleDataset(
                     5000, workload::ScaleDistribution::kUniform)
                     .value());
  maps.push_back(workload::MakeScaleDataset(
                     5000, workload::ScaleDistribution::kClustered)
                     .value());
  for (const Pin& pin : kPins) {
    const auto map = std::find_if(
        maps.begin(), maps.end(),
        [&](const workload::Dataset& d) { return d.name == pin.map; });
    ASSERT_NE(map, maps.end()) << pin.map;
    auto tree_r = DTree::Build(map->subdivision, Opts(pin.capacity));
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    const uint64_t digest = StructureDigest(tree_r.value());
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, pin.digest)
        << pin.map << " at " << pin.capacity << " B: digest " << hex;
  }
}

/// Query points that reach every decision of a descent: uniform points;
/// every region ring vertex and edge midpoint (division polylines are
/// made of ring edges); for every vertex, a point left of it and one above
/// it, whose horizontal and vertical rays run through it (the half-open
/// crossing rule); and, for every node, points on its near and far bound
/// lines (the D1/D3 comparisons' equality case) at the ring vertices of
/// the region reached from each side toward the division.
std::vector<Point> ProbePoints(const sub::Subdivision& sub,
                               const DTree& tree) {
  std::vector<Point> points;
  const geom::BBox& area = sub.service_area();
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    points.push_back({rng.Uniform(area.min_x, area.max_x),
                      rng.Uniform(area.min_y, area.max_y)});
  }
  const double step = 1e-3 * (area.max_x - area.min_x);
  for (int r = 0; r < sub.NumRegions(); ++r) {
    const std::vector<Point> ring = sub.RegionPolygon(r).ring();
    for (size_t i = 0; i < ring.size(); ++i) {
      const Point& v = ring[i];
      const Point& w = ring[(i + 1) % ring.size()];
      points.push_back(v);
      points.push_back({(v.x + w.x) / 2, (v.y + w.y) / 2});
      points.push_back({v.x - step, v.y});
      points.push_back({v.x, v.y + step});
    }
  }
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DTreeNode& n = tree.node(i);
    for (const bool first : {true, false}) {
      int node = first ? n.left_node : n.right_node;
      int region = first ? n.left_region : n.right_region;
      while (node >= 0) {
        const DTreeNode& c = tree.node(node);
        region = first ? c.right_region : c.left_region;
        node = first ? c.right_node : c.left_node;
      }
      const geom::Polygon cell = sub.RegionPolygon(region);
      for (const Point& v : cell.ring()) {
        for (const double bound : {n.near_bound, n.far_bound}) {
          points.push_back(n.dim == PartitionDim::kYDim ? Point{bound, v.y}
                                                        : Point{v.x, bound});
        }
      }
    }
  }
  return points;
}

/// FNV-1a over every probe of `points`: DTree::ProbeInto's status, region,
/// packets and origins, and Locate's region.
uint64_t ProbeDigest(const DTree& tree, const std::vector<Point>& points) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  bcast::ProbeTrace trace;
  for (const Point& p : points) {
    mix(static_cast<int64_t>(tree.ProbeInto(p, &trace).code()));
    mix(trace.region);
    mix(static_cast<int64_t>(trace.packets.size()));
    for (const int packet : trace.packets) mix(packet);
    mix(static_cast<int64_t>(trace.origins.size()));
    for (const bcast::ProbePacketOrigin& o : trace.origins) {
      mix(o.node);
      mix(o.depth);
    }
    mix(tree.Locate(p));
  }
  return h;
}

// Pins the D-tree's probe: region, packets and origins, on the paper
// datasets, three ablations and a SCALE map, at points on and next to
// every border, vertex and bound line.
TEST(DTreeTest, ProbeIsPinned) {
  enum class Variant { kDefault, kNoEarlyTermination, kUnmergedNoTieBreak,
                       kZipf };
  struct Pin {
    const char* map;
    int capacity;
    Variant variant;
    uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"UNIFORM", 64, Variant::kDefault, 0x1f0e23f237dc390bull},
      {"UNIFORM", 256, Variant::kDefault, 0xd02b9dde4c3eaa96ull},
      {"UNIFORM", 1024, Variant::kDefault, 0x5ddb157a4429999bull},
      {"HOSPITAL", 64, Variant::kDefault, 0x539e22986f6fa7b9ull},
      {"HOSPITAL", 256, Variant::kDefault, 0x1594a9829e333678ull},
      {"HOSPITAL", 1024, Variant::kDefault, 0xeab1fbc4221716b9ull},
      {"PARK", 64, Variant::kDefault, 0xb973cb42285fef4cull},
      {"PARK", 256, Variant::kDefault, 0xd9989454aba132abull},
      {"PARK", 1024, Variant::kDefault, 0x2413c0ef4a5989beull},
      {"PARK", 64, Variant::kNoEarlyTermination,
       0xf29528531d3c4657ull},
      {"HOSPITAL", 256, Variant::kUnmergedNoTieBreak,
       0x7ff0db3bc82b48d1ull},
      {"UNIFORM", 128, Variant::kZipf, 0x18575c43f2d3267aull},
      {"SCALE-U5000", 256, Variant::kDefault, 0xe756f0728590cbd2ull},
  };
  std::vector<workload::Dataset> maps = workload::MakePaperDatasets().value();
  maps.push_back(workload::MakeScaleDataset(
                     5000, workload::ScaleDistribution::kUniform)
                     .value());
  for (const Pin& pin : kPins) {
    const auto map = std::find_if(
        maps.begin(), maps.end(),
        [&](const workload::Dataset& d) { return d.name == pin.map; });
    ASSERT_NE(map, maps.end()) << pin.map;
    DTree::Options options = Opts(pin.capacity);
    switch (pin.variant) {
      case Variant::kDefault:
        break;
      case Variant::kNoEarlyTermination:
        options.early_termination = false;
        break;
      case Variant::kUnmergedNoTieBreak:
        options.merge_leaf_packets = false;
        options.interprob_tiebreak = false;
        break;
      case Variant::kZipf: {
        Rng rng(78);
        options.access_weights = workload::ZipfWeights(
            map->subdivision.NumRegions(), 1.2, &rng);
        break;
      }
    }
    auto tree_r = DTree::Build(map->subdivision, options);
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    const DTree& tree = tree_r.value();
    const uint64_t digest =
        ProbeDigest(tree, ProbePoints(map->subdivision, tree));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, pin.digest)
        << pin.map << " at " << pin.capacity << " B, variant "
        << static_cast<int>(pin.variant) << ": digest " << hex;
  }
}

// Four threads build D-trees at once, two on one shared map and two on
// maps of their own; every tree's bytes must equal a serial build's. Run
// under TSan, this catches build scratch shared between builds.
TEST(DTreeTest, ConcurrentBuildsMatchSerial) {
  const sub::Subdivision shared = test::RandomVoronoi(300, 41);
  const sub::Subdivision own_a = test::RandomVoronoi(201, 42);
  const sub::Subdivision own_b = test::ClusteredVoronoi(250, 43);
  struct Job {
    const sub::Subdivision* sub;
    int capacity;
  };
  const Job jobs[] = {{&shared, 256}, {&shared, 64}, {&own_a, 128},
                      {&own_b, 1024}};
  auto build_bytes = [](const Job& job) {
    const DTree tree = DTree::Build(*job.sub, Opts(job.capacity)).value();
    const bcast::PacketBuffer packets = SerializeDTree(tree).value();
    return std::vector<uint8_t>(packets.data(),
                                packets.data() + packets.size_bytes());
  };
  std::vector<std::vector<uint8_t>> serial;
  for (const Job& job : jobs) serial.push_back(build_bytes(job));

  std::vector<std::vector<uint8_t>> concurrent(std::size(jobs));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < std::size(jobs); ++i) {
    threads.emplace_back(
        [&, i] { concurrent[i] = build_bytes(jobs[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < std::size(jobs); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(concurrent[i], serial[i]) << "job " << i;
  }
}

/// Every node field, the tree's shape and paging, and the wire bytes.
void ExpectSameTree(const DTree& a, const DTree& b, const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  EXPECT_EQ(a.root(), b.root()) << what;
  EXPECT_EQ(a.height(), b.height()) << what;
  EXPECT_EQ(a.bfs_order(), b.bfs_order()) << what;
  for (int i = 0; i < a.num_nodes(); ++i) {
    const DTreeNode& x = a.node(i);
    const DTreeNode& y = b.node(i);
    bool same_chains = a.layout().num_chains(i) == b.layout().num_chains(i);
    for (uint32_t k = 0; same_chains && k < a.layout().num_chains(i); ++k) {
      const DTreeArena::Chain p = a.layout().chain(i, k);
      const DTreeArena::Chain q = b.layout().chain(i, k);
      same_chains = p.closed == q.closed && std::ranges::equal(p.pts, q.pts);
    }
    const bool same =
        x.dim == y.dim && x.near_bound == y.near_bound &&
        x.far_bound == y.far_bound && x.left_node == y.left_node &&
        x.right_node == y.right_node && x.left_region == y.left_region &&
        x.right_region == y.right_region && x.depth == y.depth &&
        x.byte_size == y.byte_size && x.large == y.large &&
        x.explicit_bounds == y.explicit_bounds && same_chains;
    ASSERT_TRUE(same) << what << ": node " << i;
    EXPECT_EQ(a.span(i).first_packet, b.span(i).first_packet) << what;
    EXPECT_EQ(a.span(i).num_packets, b.span(i).num_packets) << what;
    EXPECT_EQ(a.span(i).offset, b.span(i).offset) << what;
  }
  const bcast::PacketBuffer pa = SerializeDTree(a).value();
  const bcast::PacketBuffer pb = SerializeDTree(b).value();
  EXPECT_TRUE(std::equal(pa.data(), pa.data() + pa.size_bytes(), pb.data(),
                         pb.data() + pb.size_bytes()))
      << what << ": SerializeDTree bytes differ";
}

// The level loop computes a level's nodes on num_threads lanes; the tree
// must not depend on how many. 0 is the default: one thread below 2048
// regions, every hardware thread on SCALE-U5000.
TEST(DTreeTest, ThreadCountInvariant) {
  struct Map {
    std::string name;
    sub::Subdivision sub;
    DTree::Options options;
  };
  std::vector<Map> maps;
  maps.push_back({"random-300", test::RandomVoronoi(300, 61), Opts(128)});
  maps.push_back({"clustered-250", test::ClusteredVoronoi(250, 62), Opts(64)});
  {
    Map weighted{"weighted-300", test::RandomVoronoi(300, 63), Opts(256)};
    Rng rng(64);
    for (int r = 0; r < weighted.sub.NumRegions(); ++r) {
      weighted.options.access_weights.push_back(rng.Uniform(0.0, 1.0) < 0.1
                                                    ? 20.0
                                                    : rng.Uniform(0.5, 1.5));
    }
    maps.push_back(std::move(weighted));
  }
  maps.push_back({"SCALE-U5000",
                  workload::MakeScaleDataset(
                      5000, workload::ScaleDistribution::kUniform)
                      .value()
                      .subdivision,
                  Opts(256)});
  for (const Map& map : maps) {
    DTree::Options options = map.options;
    options.num_threads = 1;
    const DTree serial = DTree::Build(map.sub, options).value();
    for (const int threads : {0, 2, 3, 4, 8}) {
      options.num_threads = threads;
      auto tree_r = DTree::Build(map.sub, options);
      ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
      ExpectSameTree(serial, tree_r.value(),
                     map.name + " at " + std::to_string(threads) +
                         " threads");
    }
  }

  // A hostile map: an 8 x 8 grid of unit squares, top row first, and a
  // triangle that repeats the directed edge (6, 0) -> (6, 1) of a square
  // in the bottom row, so every group holding one of the three rings on
  // that segment fails. The root's groups hold none of them. With zero
  // access weights on the top-right 2 x 2 squares, a group of only those
  // fails too, in another subtree and first in preorder. Either way the
  // build must report the Status of the preorder recursion at every
  // thread count.
  std::vector<geom::Polygon> cells;
  for (int row = 7; row >= 0; --row) {
    for (int col = 0; col < 8; ++col) {
      cells.push_back(geom::Polygon({{col + 0.0, row + 0.0},
                                     {col + 1.0, row + 0.0},
                                     {col + 1.0, row + 1.0},
                                     {col + 0.0, row + 1.0}}));
    }
  }
  cells.push_back(geom::Polygon({{6, 0}, {6, 1}, {5.5, 0.5}}));
  const sub::Subdivision hostile =
      sub::Subdivision::FromPolygons(geom::BBox{0, 0, 8, 8}, cells).value();
  std::vector<int> all(hostile.NumRegions());
  std::iota(all.begin(), all.end(), 0);
  ASSERT_TRUE(ChooseBestPartition(hostile, all, true).ok());
  DTree::Options zero_corner = Opts(256);
  zero_corner.access_weights.assign(hostile.NumRegions(), 1.0);
  for (const int r : {6, 7, 14, 15}) zero_corner.access_weights[r] = 0.0;
  const std::pair<DTree::Options, StatusCode> cases[] = {
      {Opts(256), StatusCode::kInternal},
      {zero_corner, StatusCode::kInvalidArgument}};
  for (auto [options, code] : cases) {
    options.num_threads = 1;
    const Status want = DTree::Build(hostile, options).status();
    ASSERT_EQ(want.code(), code) << want.ToString();
    for (const int threads : {0, 2, 3, 4, 8}) {
      options.num_threads = threads;
      const Status got = DTree::Build(hostile, options).status();
      EXPECT_EQ(got.code(), want.code()) << threads << " threads";
      EXPECT_EQ(got.message(), want.message()) << threads << " threads";
    }
  }
}

class DTreeSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DTreeSweepTest, AgreesWithOracle) {
  const auto [n, capacity] = GetParam();
  const sub::Subdivision sub = test::RandomVoronoi(n, 100 + n);
  auto tree_r = DTree::Build(sub, Opts(capacity));
  ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
  const sub::PointLocator oracle(sub);
  Rng rng(200 + n);
  for (int q = 0; q < 400; ++q) {
    const Point p = test::UnambiguousQueryPoint(sub, &rng);
    ASSERT_EQ(tree_r.value().Locate(p), oracle.Locate(p))
        << "n=" << n << " capacity=" << capacity << " p=" << p.x << ","
        << p.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DTreeSweepTest,
    ::testing::Combine(::testing::Values(2, 3, 7, 25, 64, 150),
                       ::testing::Values(64, 256, 2048)));

}  // namespace
}  // namespace dtree::core
