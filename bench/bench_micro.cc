// Micro-benchmarks (google-benchmark): index construction cost and
// in-memory query throughput for all four structures, plus the Voronoi
// substrate. These measure wall-clock performance of this implementation
// (the paper's metrics are packet counts, covered by the figure benches).
//
// Flat-arena probe throughput (EXPERIMENTS.md E14): passing
// --bench-json=PATH switches on a self-verifying measurement pass that
// times each family's layout (DESIGN.md §12) on SCALE-U subdivisions up
// to N=100k, built by the tree and decoded from its wire bytes — the
// D-tree's also against its per-probe byte decoder — then writes the
// ns/probe table to PATH. Before any timing, every configuration is
// checked query-by-query: the D-tree's decoded layout against its byte
// decoder (the bit-identical oracle), each baseline's decoded layout's
// region against its built tree's outside the border band. Any mismatch
// exits nonzero, so a CI bench run doubles as a correctness gate.
// Remaining arguments pass through to google-benchmark (use
// --benchmark_filter=NONE to run only the measurement pass).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/arena.h"
#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/arena.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/arena.h"
#include "baselines/trapmap/trapmap.h"
#include "bench_util.h"
#include "broadcast/experiment.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dtree/arena.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "subdivision/voronoi.h"
#include "workload/datasets.h"

namespace {

using namespace dtree;

const sub::Subdivision& SharedSubdivision(int n) {
  static auto* cache =
      new std::map<int, sub::Subdivision>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(99);
    const geom::BBox area = workload::DefaultServiceArea();
    auto pts = workload::UniformPoints(n, area, &rng);
    auto sub = sub::BuildVoronoiSubdivision(pts, area);
    it = cache->emplace(n, std::move(sub).value()).first;
  }
  return it->second;
}

void BM_VoronoiBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  const geom::BBox area = workload::DefaultServiceArea();
  auto pts = workload::UniformPoints(n, area, &rng);
  for (auto _ : state) {
    auto sub = sub::BuildVoronoiSubdivision(pts, area);
    benchmark::DoNotOptimize(sub);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VoronoiBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_DTreeBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = core::DTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_DTreeBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_RStarBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::RStarTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = baselines::RStarTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_RStarBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_TrapMapBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrapMap::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto map = baselines::TrapMap::Build(sub, o);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_TrapMapBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_TrianTreeBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrianTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = baselines::TrianTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TrianTreeBuild)->Arg(100)->Arg(500)->Arg(1000);

std::vector<geom::Point> SampleQueries(const sub::Subdivision& sub,
                                       size_t count) {
  Rng rng(5);
  const geom::BBox& a = sub.service_area();
  std::vector<geom::Point> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back({rng.Uniform(a.min_x, a.max_x),
                       rng.Uniform(a.min_y, a.max_y)});
  }
  return queries;
}

template <typename Index>
void QueryLoop(benchmark::State& state, const Index& index,
               const sub::Subdivision& sub) {
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Locate(queries[i & 1023]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DTreeQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_DTreeQuery)->Arg(100)->Arg(1000);

void BM_RStarQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::RStarTree::Options o;
  o.packet_capacity = 256;
  auto tree = baselines::RStarTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_RStarQuery)->Arg(100)->Arg(1000);

void BM_TrapMapQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrapMap::Options o;
  o.packet_capacity = 256;
  auto map = baselines::TrapMap::Build(sub, o);
  QueryLoop(state, map.value(), sub);
}
BENCHMARK(BM_TrapMapQuery)->Arg(100)->Arg(1000);

void BM_TrianTreeQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrianTree::Options o;
  o.packet_capacity = 256;
  auto tree = baselines::TrianTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_TrianTreeQuery)->Arg(100)->Arg(1000);

// Per-probe byte decoding vs the flat arena on the same serialized cycle.
// Small-N spot checks for interactive runs; the --bench-json measurement
// pass covers the N=100k headline numbers with full verification.
void BM_DTreeProbeDecode(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o).value();
  auto packets = core::SerializeDTree(tree).value();
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  std::vector<int> read;
  size_t i = 0;
  for (auto _ : state) {
    read.clear();
    benchmark::DoNotOptimize(core::QueryFromPackets(
        packets, 256, /*framed=*/false, tree.options().early_termination,
        queries[i & 1023], &read));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DTreeProbeDecode)->Arg(1000);

void BM_DTreeProbeArena(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o).value();
  auto packets = core::SerializeDTree(tree).value();
  auto arena =
      core::DTreeArena::Build(packets, 256, /*framed=*/false,
                              tree.options().early_termination,
                              tree.num_regions())
          .value();
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  bcast::ProbeTrace trace;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.ProbeInto(queries[i & 1023], &trace));
    benchmark::DoNotOptimize(trace.region);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DTreeProbeArena)->Arg(1000);

// Sharded experiment driver end to end; Arg = thread count. Compares the
// pool dispatch overhead and scaling of the full query loop (sample ->
// probe -> channel simulation) at a fixed 500-region workload.
void BM_RunExperimentThreads(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(500);
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o);
  bcast::ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 20000;
  opt.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto res = bcast::RunExperiment(tree.value(), sub, nullptr, opt);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * opt.num_queries);
}
BENCHMARK(BM_RunExperimentThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Raw pool dispatch cost: trivial tasks, so the time is all handoff.
void BM_ThreadPoolParallelFor(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  std::atomic<int64_t> sink{0};
  for (auto _ : state) {
    pool.ParallelFor(64, [&](int i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// --bench-json measurement pass: flat arenas (and the D-tree's per-probe
// decoder), verified.
// ---------------------------------------------------------------------------

struct ProbeMeasurement {
  std::string index;
  int n = 0;
  size_t arena_bytes = 0;
  int verified_queries = 0;
  double decode_ns = 0.0;  ///< 0 for the baselines: no per-probe decoder
  double tree_ns = 0.0;    ///< the built tree's own ProbeInto
  double arena_ns = 0.0;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times fn(query) over the query set until ~0.25 s has elapsed; returns
/// mean ns per call.
template <typename Fn>
double TimeProbeNs(const std::vector<geom::Point>& queries, Fn&& fn) {
  const size_t nq = queries.size();
  for (size_t i = 0; i < nq; ++i) fn(queries[i]);  // warm caches
  int64_t calls = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    for (size_t i = 0; i < nq; ++i) fn(queries[i]);
    calls += static_cast<int64_t>(nq);
    elapsed = NowSeconds() - start;
  } while (elapsed < 0.25);
  return elapsed * 1e9 / static_cast<double>(calls);
}

/// Times the arena engine over the verified queries and prints the row.
void MeasureArena(const bcast::FlatProbeEngine& engine,
                  const std::vector<geom::Point>& queries,
                  ProbeMeasurement* out) {
  bcast::ProbeTrace trace;
  out->arena_bytes = engine.ArenaBytes();
  out->verified_queries = static_cast<int>(queries.size());
  out->arena_ns = TimeProbeNs(queries, [&](const geom::Point& p) {
    benchmark::DoNotOptimize(engine.ProbeInto(p, &trace));
  });
  std::printf("%-10s n=%-7d ", out->index.c_str(), out->n);
  if (out->decode_ns > 0.0) {
    std::printf("decode %8.1f ns/probe   ", out->decode_ns);
  }
  if (out->tree_ns > 0.0) {
    std::printf("tree %8.1f ns/probe   ", out->tree_ns);
  }
  std::printf("arena %8.1f ns/probe   ", out->arena_ns);
  if (out->decode_ns > 0.0) {
    std::printf("speedup %5.2fx   ", out->decode_ns / out->arena_ns);
  }
  std::printf("arena %zu bytes\n", out->arena_bytes);
  std::fflush(stdout);
}

/// D-tree guard: compares the byte decoder (the bit-identical oracle)
/// against the arena engine on every query — outcome, region and packet
/// log — then times both. `decode` returns the region via Result and
/// appends the read-log to its vector argument.
template <typename DecodeFn>
bool GuardAndMeasure(const std::string& index_name, int n,
                     DecodeFn&& decode, const bcast::FlatProbeEngine& engine,
                     const std::vector<geom::Point>& queries,
                     ProbeMeasurement* out) {
  std::vector<int> read;
  bcast::ProbeTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Point& p = queries[i];
    read.clear();
    Result<int> oracle = decode(p, &read);
    const Status st = engine.ProbeInto(p, &trace);
    if (!oracle.ok() || !st.ok()) {
      if (oracle.ok() != st.ok() ||
          oracle.status().code() != st.code()) {
        std::fprintf(stderr,
                     "FAIL %s n=%d query %zu: oracle '%s' vs arena '%s'\n",
                     index_name.c_str(), n, i,
                     oracle.ok() ? "ok" : oracle.status().ToString().c_str(),
                     st.ok() ? "ok" : st.ToString().c_str());
        return false;
      }
      continue;  // both failed identically (e.g. NotFound outside area)
    }
    if (oracle.value() != trace.region) {
      std::fprintf(stderr,
                   "FAIL %s n=%d query %zu (%.17g, %.17g): oracle region %d "
                   "vs arena region %d\n",
                   index_name.c_str(), n, i, p.x, p.y, oracle.value(),
                   trace.region);
      return false;
    }
    if (read != trace.packets) {
      std::fprintf(stderr,
                   "FAIL %s n=%d query %zu: packet log diverges "
                   "(oracle %zu packets, arena %zu)\n",
                   index_name.c_str(), n, i, read.size(),
                   trace.packets.size());
      return false;
    }
  }

  out->index = index_name;
  out->n = n;
  out->decode_ns = TimeProbeNs(queries, [&](const geom::Point& p) {
    read.clear();
    benchmark::DoNotOptimize(decode(p, &read));
  });
  MeasureArena(engine, queries, out);
  return true;
}

constexpr int kVerifyQueries = 4096;
constexpr int kPacketCapacity = 256;

bool MeasureDTree(const sub::Subdivision& sub, int n,
                  std::vector<ProbeMeasurement>* results) {
  core::DTree::Options o;
  o.packet_capacity = kPacketCapacity;
  auto tree_r = core::DTree::Build(sub, o);
  if (!tree_r.ok()) return false;
  const core::DTree& tree = tree_r.value();
  auto packets_r = core::SerializeDTree(tree);
  if (!packets_r.ok()) return false;
  const bcast::PacketBuffer& packets = packets_r.value();
  auto arena_r = core::DTreeArena::Build(
      packets, kPacketCapacity, /*framed=*/false,
      tree.options().early_termination, tree.num_regions());
  if (!arena_r.ok()) return false;
  const auto queries = SampleQueries(sub, kVerifyQueries);
  ProbeMeasurement m;
  bcast::ProbeTrace trace;
  m.tree_ns = TimeProbeNs(queries, [&](const geom::Point& p) {
    benchmark::DoNotOptimize(tree.ProbeInto(p, &trace));
  });
  if (!GuardAndMeasure(
          "dtree", n,
          [&](const geom::Point& p, std::vector<int>* read) {
            return core::QueryFromPackets(
                packets, kPacketCapacity, /*framed=*/false,
                tree.options().early_termination, p, read);
          },
          arena_r.value(), queries, &m)) {
    return false;
  }
  results->push_back(m);
  return true;
}

/// Baseline guard: each baseline's decoded layout is its family's only
/// wire reader, so it is checked against the built tree's probe — the
/// same descent over the tree's exact doubles. The regions must agree at
/// every query outside the kMergeEps * 100 border band, where the wire's
/// f32 coordinates may pick the neighbouring region. Then both are timed
/// on the verified queries. `build_arena` is the family's
/// Build*ArenaIndex.
template <typename Tree, typename BuildArenaFn>
bool MeasureBaseline(const std::string& index_name,
                     const sub::Subdivision& sub, int n,
                     BuildArenaFn build_arena,
                     const std::vector<geom::Point>& queries,
                     std::vector<ProbeMeasurement>* results) {
  typename Tree::Options o;
  o.packet_capacity = kPacketCapacity;
  auto tree_r = Tree::Build(sub, o);
  if (!tree_r.ok()) return false;
  auto arena_r = build_arena(tree_r.value(), sub.NumRegions());
  if (!arena_r.ok()) return false;
  const Tree& tree = tree_r.value();
  const bcast::FlatProbeEngine& engine = arena_r.value().engine();
  bcast::ProbeTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Point& p = queries[i];
    const Result<bcast::ProbeTrace> built = tree.Probe(p);
    const Status st = engine.ProbeInto(p, &trace);
    const bool agree =
        built.ok() && st.ok() ? built.value().region == trace.region
                              : built.status().code() == st.code();
    if (agree || sub.DistanceToNearestBorder(p) <= geom::kMergeEps * 100.0) {
      continue;
    }
    std::fprintf(stderr,
                 "FAIL %s n=%d query %zu (%.17g, %.17g): tree '%s' region "
                 "%d vs arena '%s' region %d outside the border band\n",
                 index_name.c_str(), n, i, p.x, p.y,
                 built.status().ToString().c_str(),
                 built.ok() ? built.value().region : -1,
                 st.ToString().c_str(), trace.region);
    return false;
  }
  ProbeMeasurement m;
  m.index = index_name;
  m.n = n;
  m.tree_ns = TimeProbeNs(queries, [&](const geom::Point& p) {
    benchmark::DoNotOptimize(tree.ProbeInto(p, &trace));
  });
  MeasureArena(engine, queries, &m);
  results->push_back(m);
  return true;
}

bool MeasureBaselines(const sub::Subdivision& sub, int n,
                      std::vector<ProbeMeasurement>* results) {
  const auto queries = SampleQueries(sub, kVerifyQueries);
  return MeasureBaseline<baselines::TrapMap>(
             "trapmap", sub, n, baselines::BuildTrapMapArenaIndex, queries,
             results) &&
         MeasureBaseline<baselines::TrianTree>(
             "kirkpatrick", sub, n, baselines::BuildTrianTreeArenaIndex,
             queries, results) &&
         MeasureBaseline<baselines::RStarTree>(
             "rstar", sub, n, baselines::BuildRStarArenaIndex, queries,
             results);
}

bool WriteJson(const std::string& path,
               const std::vector<ProbeMeasurement>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_micro probe throughput\",\n");
  // The measurement pass probes from one thread.
  std::fprintf(f, "  \"host\": %s,\n", bench::BenchHostJson(1).c_str());
  std::fprintf(f, "  \"packet_capacity\": %d,\n", kPacketCapacity);
  std::fprintf(f, "  \"verify_queries\": %d,\n", kVerifyQueries);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ProbeMeasurement& m = results[i];
    std::fprintf(f, "    {\"index\": \"%s\", \"n\": %d, ", m.index.c_str(),
                 m.n);
    if (m.decode_ns > 0.0) {
      std::fprintf(f, "\"decode_ns_per_probe\": %.1f, ", m.decode_ns);
    }
    if (m.tree_ns > 0.0) {
      std::fprintf(f, "\"tree_ns_per_probe\": %.1f, ", m.tree_ns);
    }
    std::fprintf(f, "\"arena_ns_per_probe\": %.1f, ", m.arena_ns);
    if (m.decode_ns > 0.0) {
      std::fprintf(f, "\"speedup\": %.2f, ", m.decode_ns / m.arena_ns);
    }
    std::fprintf(f, "\"arena_bytes\": %zu, \"verified_queries\": %d}%s\n",
                 m.arena_bytes, m.verified_queries,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Runs the verified arena measurement matrix and writes the JSON table.
/// Returns false (-> nonzero exit) on any verification failure: every
/// arena engine must pass its guard on every sampled query before a
/// single number is reported.
bool RunProbeThroughputPass(const std::string& json_path) {
  std::vector<ProbeMeasurement> results;
  for (int n : {1000, 20000, 100000}) {
    auto ds = workload::MakeScaleDataset(
        n, workload::ScaleDistribution::kUniform);
    if (!ds.ok()) {
      std::fprintf(stderr, "SCALE-U%d build failed: %s\n", n,
                   ds.status().ToString().c_str());
      return false;
    }
    if (!MeasureDTree(ds.value().subdivision, n, &results)) return false;
    if (n <= 20000 &&
        !MeasureBaselines(ds.value().subdivision, n, &results)) {
      return false;
    }
  }
  return WriteJson(json_path, results);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  // Strip --bench-json=PATH before google-benchmark sees the arguments.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--bench-json=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!json_path.empty() && !RunProbeThroughputPass(json_path)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
