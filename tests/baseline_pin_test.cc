// Pins each baseline's probe: ProbeInto's status, region and packet list
// and Locate's region, on the paper datasets at three packet capacities
// and on one SCALE map. The points are uniform draws plus every place
// where a comparison can tie: each subdivision vertex, a point left of and
// a point above it, points on and either side of the trap-tree x-node
// wall through it, and points on each region's MBR edges and ring edges.
//
// A second digest per family pins the decoded layout (Build*ArenaIndex)
// at points exactly on its f32 wire geometry, where the rounding picks
// the branch: x equal to each promoted x-node wall with y on both sides
// of the vertex, points on each outward-rounded MBR edge, and each
// promoted triangle vertex.
//
// The values were recorded once and are never edited.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/arena.h"
#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/arena.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/arena.h"
#include "baselines/trapmap/trapmap.h"
#include "common/rng.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::baselines {
namespace {

using geom::Point;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// FNV-1a-64 over 64-bit words.
class Digest {
 public:
  void Mix(int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  /// ProbeInto's status code, region and packet list at p.
  void Probe(const bcast::AirIndex& index, const Point& p,
             bcast::ProbeTrace* trace) {
    Mix(static_cast<int64_t>(index.ProbeInto(p, trace).code()));
    Mix(trace->region);
    Mix(static_cast<int64_t>(trace->packets.size()));
    for (const int packet : trace->packets) Mix(packet);
  }
  uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

const workload::Dataset& Map(const std::string& name) {
  static const std::vector<workload::Dataset> maps = [] {
    std::vector<workload::Dataset> m = workload::MakePaperDatasets().value();
    m.push_back(workload::MakeScaleDataset(
                    5000, workload::ScaleDistribution::kUniform)
                    .value());
    return m;
  }();
  for (const workload::Dataset& d : maps) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no map " << name;
  return maps.front();
}

/// Uniform points, then the tie points of the in-memory geometry.
std::vector<Point> TreeProbePoints(const sub::Subdivision& sub) {
  std::vector<Point> points;
  const geom::BBox& area = sub.service_area();
  Rng rng(91);
  for (int i = 0; i < 3000; ++i) {
    points.push_back({rng.Uniform(area.min_x, area.max_x),
                      rng.Uniform(area.min_y, area.max_y)});
  }
  const double step = 1e-3 * (area.max_x - area.min_x);
  for (const Point& v : sub.vertices()) {
    points.push_back(v);
    points.push_back({v.x - step, v.y});
    points.push_back({v.x, v.y + step});
    points.push_back({v.x, v.y - step});
    points.push_back({std::nextafter(v.x, -kInf), v.y});
    points.push_back({std::nextafter(v.x, kInf), v.y});
  }
  for (int r = 0; r < sub.NumRegions(); ++r) {
    const std::vector<int>& ring = sub.Ring(r);
    for (size_t i = 0; i < ring.size(); ++i) {
      const Point& v = sub.vertices()[ring[i]];
      const Point& w = sub.vertices()[ring[(i + 1) % ring.size()]];
      points.push_back({(v.x + w.x) / 2, (v.y + w.y) / 2});
    }
    const geom::BBox& b = sub.RegionBounds(r);
    const double cx = (b.min_x + b.max_x) / 2;
    const double cy = (b.min_y + b.max_y) / 2;
    for (const Point& q : {Point{b.min_x, cy}, Point{b.max_x, cy},
                           Point{cx, b.min_y}, Point{cx, b.max_y},
                           Point{b.min_x, b.min_y}, Point{b.max_x, b.max_y}}) {
      points.push_back(q);
    }
  }
  return points;
}

/// The pinned inputs: the paper maps at three capacities and one SCALE
/// map, in the order of each family's digest list.
struct MapAt {
  const char* map;
  int capacity;
};
constexpr MapAt kPinnedMaps[] = {
    {"UNIFORM", 64},  {"UNIFORM", 256},  {"UNIFORM", 1024},
    {"HOSPITAL", 64}, {"HOSPITAL", 256}, {"HOSPITAL", 1024},
    {"PARK", 64},     {"PARK", 256},     {"PARK", 1024},
    {"SCALE-U5000", 256},
};
constexpr size_t kNumPins = std::size(kPinnedMaps);

template <typename Index>
void ExpectProbePins(const uint64_t (&digests)[kNumPins]) {
  for (size_t i = 0; i < kNumPins; ++i) {
    const MapAt& pin = kPinnedMaps[i];
    const sub::Subdivision& sub = Map(pin.map).subdivision;
    typename Index::Options options;
    options.packet_capacity = pin.capacity;
    auto index_r = Index::Build(sub, options);
    ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
    const Index& index = index_r.value();
    Digest digest;
    bcast::ProbeTrace trace;
    for (const Point& p : TreeProbePoints(sub)) {
      digest.Probe(index, p, &trace);
      digest.Mix(index.Locate(p));
    }
    EXPECT_EQ(digest.value(), digests[i])
        << index.name() << " on " << pin.map << " at " << pin.capacity
        << " B: digest " << digest.hex();
  }
}

/// The decoded layout's outcomes at `points` on UNIFORM at 256 B.
template <typename Index, typename BuildArenaFn>
void ExpectWirePin(BuildArenaFn build_arena,
                   const std::vector<Point>& points, uint64_t want) {
  const sub::Subdivision& sub = Map("UNIFORM").subdivision;
  typename Index::Options options;
  options.packet_capacity = 256;
  auto index_r = Index::Build(sub, options);
  ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
  auto arena_r = build_arena(index_r.value(), sub.NumRegions());
  ASSERT_TRUE(arena_r.ok()) << arena_r.status().ToString();
  Digest digest;
  bcast::ProbeTrace trace;
  for (const Point& p : points) digest.Probe(arena_r.value(), p, &trace);
  EXPECT_EQ(digest.value(), want) << "digest " << digest.hex();
}

double Promoted(double v) { return static_cast<float>(v); }

/// The wire's outward rounding of an MBR bound, promoted back.
double RoundedDown(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) f = std::nextafterf(f, -HUGE_VALF);
  return f;
}
double RoundedUp(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) f = std::nextafterf(f, HUGE_VALF);
  return f;
}

TEST(TrapMapTest, ProbeIsPinned) {
  ExpectProbePins<TrapMap>({
      0x67a659cd57d44abbull, 0x87d9c0c861a3722full, 0xb19ed067393f2976ull,
      0xaf7ce4af8952e6b4ull, 0xab1b6647a5354e89ull, 0x2a831781ac8a29a4ull,
      0x9eb17f4f326d128aull, 0x9edf05e1c67e0177ull, 0x45bbac77fa37015bull,
      0x9b95a949cd5d84c5ull,
  });
}

TEST(TrianTreeTest, ProbeIsPinned) {
  ExpectProbePins<TrianTree>({
      0x7522b21d84e931f3ull, 0xbca69f74e2611b36ull, 0x2f57d5df37834209ull,
      0xae0f6d15f9897489ull, 0x441008941d1c47d1ull, 0x4c9e4896b28807ebull,
      0x700a9e8d0d06b76eull, 0xe6fe8a545c4ca002ull, 0x0350fa76a2efb987ull,
      0x86e8bd16313fa7b7ull,
  });
}

TEST(RStarTest, ProbeIsPinned) {
  ExpectProbePins<RStarTree>({
      0x085eb39ee4c5c6d2ull, 0x65f273df7706af3aull, 0xbd643345f85ff15cull,
      0xbe584cb962b7b8adull, 0x45eb603d12fe9e64ull, 0x52aaa31ec0c0efbeull,
      0x58c3e85df0cc21f0ull, 0x716a92a416dd1e10ull, 0xc17d7a869524662dull,
      0x55b6f12e0a8cef71ull,
  });
}

// Each x-node's wall as the wire carries it, with y above and below the
// vertex: the decoded test is p.x < x alone.
TEST(TrapMapArenaTest, ProbeOnWireWallsIsPinned) {
  const sub::Subdivision& sub = Map("UNIFORM").subdivision;
  const double step = 1e-3 * sub.service_area().width();
  std::vector<Point> points;
  for (const Point& v : sub.vertices()) {
    points.push_back({Promoted(v.x), v.y + step});
    points.push_back({Promoted(v.x), v.y - step});
  }
  ExpectWirePin<TrapMap>(BuildTrapMapArenaIndex, points,
                         0xfdc4fb94378880eaull);
}

// Each triangle vertex as the wire carries it: the subdivision's vertices
// and the corners of the rectangle the gap triangles fill.
TEST(TrianTreeArenaTest, ProbeOnWireVerticesIsPinned) {
  const sub::Subdivision& sub = Map("UNIFORM").subdivision;
  const geom::BBox& area = sub.service_area();
  const double mx = std::max(area.width(), area.height()) * 0.1;
  std::vector<Point> points;
  for (const Point& v : sub.vertices()) {
    points.push_back({Promoted(v.x), Promoted(v.y)});
  }
  for (const double x : {area.min_x - mx, area.max_x + mx}) {
    for (const double y : {area.min_y - mx, area.max_y + mx}) {
      points.push_back({Promoted(x), Promoted(y)});
    }
  }
  ExpectWirePin<TrianTree>(BuildTrianTreeArenaIndex, points,
                           0xb95feeb472ebb02aull);
}

// Each region's MBR as the wire carries it, rounded outward: the middle
// of every edge and two corners.
TEST(RStarArenaTest, ProbeOnWireMbrEdgesIsPinned) {
  const sub::Subdivision& sub = Map("UNIFORM").subdivision;
  std::vector<Point> points;
  for (int r = 0; r < sub.NumRegions(); ++r) {
    const geom::BBox& b = sub.RegionBounds(r);
    const double x0 = RoundedDown(b.min_x), y0 = RoundedDown(b.min_y);
    const double x1 = RoundedUp(b.max_x), y1 = RoundedUp(b.max_y);
    const double cx = (x0 + x1) / 2, cy = (y0 + y1) / 2;
    for (const Point& q : {Point{x0, cy}, Point{x1, cy}, Point{cx, y0},
                           Point{cx, y1}, Point{x0, y0}, Point{x1, y1}}) {
      points.push_back(q);
    }
  }
  ExpectWirePin<RStarTree>(BuildRStarArenaIndex, points,
                           0x28cd01f1a958ecfcull);
}

}  // namespace
}  // namespace dtree::baselines
