// Build-pipeline scaling bench: times every phase of turning N sites into
// broadcast-ready packets — site generation, grid-pruned parallel Voronoi,
// subdivision stitching, triangulation, D-tree partitioning, packet paging,
// and serialization — on SCALE datasets far beyond the paper's N=1102.
//
// Before any timing, the bench self-checks correctness: the N=1102 PARK
// subdivision built through the grid-pruned parallel path (at 1, 4, and 8
// threads) must be bit-identical to the pre-grid serial reference
// (VoronoiCellsReference), and the D-tree built on it at 1, 4 and 8
// threads must serialize to the same bytes. Any divergence exits nonzero,
// which is what CI keys off.
//
// Flags:
//   --n=10000,50000,...        SCALE sizes to sweep (default 10k,50k,100k)
//   --dist=uniform|clustered|both   site distribution (default uniform)
//   --threads=T                Voronoi, stitch and D-tree build threads
//                              (0 = hardware concurrency)
//   --seed=S                   site RNG seed (default 7, the dataset seed)
//   --bench-json=PATH          timings JSON (default BENCH_build.json)
//   --serial-baseline-max=N    also time the pre-grid O(n^2) reference
//                              Voronoi for sweep sizes <= N and report the
//                              end-to-end speedup (0 = off; the reference
//                              is quadratic, keep this modest)
//   --skip-digest-check        skip the PARK bit-identity gate

#include <cstring>

#include "bench_util.h"

#include "common/metrics.h"
#include "dtree/serialize.h"
#include "subdivision/triangulate.h"
#include "subdivision/voronoi.h"

namespace {

using dtree::bench::SecondsSince;
using dtree::geom::BBox;
using dtree::geom::Point;
using dtree::geom::Polygon;

struct BuildFlags {
  std::vector<int> ns{10000, 50000, 100000};
  std::vector<dtree::workload::ScaleDistribution> dists{
      dtree::workload::ScaleDistribution::kUniform};
  int threads = 0;
  uint64_t seed = 7;
  std::string bench_json = "BENCH_build.json";
  int serial_baseline_max = 0;
  bool digest_check = true;
};

BuildFlags Parse(int argc, char** argv) {
  using dtree::workload::ScaleDistribution;
  BuildFlags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--n=", 4) == 0) {
      f.ns.clear();
      for (const std::string& s : dtree::bench::SplitCsv(arg + 4)) {
        f.ns.push_back(std::atoi(s.c_str()));
      }
    } else if (std::strncmp(arg, "--dist=", 7) == 0) {
      const std::string d = arg + 7;
      f.dists.clear();
      if (d == "uniform" || d == "both") {
        f.dists.push_back(ScaleDistribution::kUniform);
      }
      if (d == "clustered" || d == "both") {
        f.dists.push_back(ScaleDistribution::kClustered);
      }
      if (f.dists.empty()) {
        std::fprintf(stderr, "bad --dist=%s\n", d.c_str());
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      f.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      f.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
      f.bench_json = arg + 13;
    } else if (std::strncmp(arg, "--serial-baseline-max=", 22) == 0) {
      f.serial_baseline_max = std::atoi(arg + 22);
    } else if (std::strcmp(arg, "--skip-digest-check") == 0) {
      f.digest_check = false;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --n= --dist= --threads= "
                   "--seed= --bench-json= --serial-baseline-max= "
                   "--skip-digest-check)\n",
                   arg);
      std::exit(2);
    }
  }
  return f;
}

/// Folds `len` bytes into an FNV-1a digest.
void MixBytes(uint64_t* h, const void* p, size_t len) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < len; ++i) {
    *h ^= b[i];
    *h *= 1099511628211ull;
  }
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over the subdivision's vertex coordinates and ring indices —
/// a bitwise digest of the stitched geometry.
uint64_t SubdivisionDigest(const dtree::sub::Subdivision& sub) {
  uint64_t h = kFnvBasis;
  for (const Point& p : sub.vertices()) {
    MixBytes(&h, &p.x, sizeof(p.x));
    MixBytes(&h, &p.y, sizeof(p.y));
  }
  for (int i = 0; i < sub.NumRegions(); ++i) {
    for (int v : sub.Ring(i)) MixBytes(&h, &v, sizeof(v));
  }
  return h;
}

/// The CI gate: the grid-pruned parallel Voronoi must reproduce the
/// pre-grid serial reference bit-for-bit on the PARK-sized dataset, at
/// every thread count, and so must the D-tree's bytes on that
/// subdivision. Returns false (and prints) on any divergence.
bool DigestCheck() {
  const BBox area = dtree::workload::DefaultServiceArea();
  dtree::Rng rng(7);  // the MakePaperDatasets seed
  const std::vector<Point> sites =
      dtree::workload::ClusteredPoints(1102, area, 25, 0.03, &rng);

  auto ref_cells = dtree::sub::VoronoiCellsReference(sites, area);
  if (!ref_cells.ok()) {
    std::fprintf(stderr, "digest check: reference Voronoi failed: %s\n",
                 ref_cells.status().ToString().c_str());
    return false;
  }
  auto ref_sub = dtree::sub::Subdivision::FromPolygons(area, ref_cells.value());
  if (!ref_sub.ok()) {
    std::fprintf(stderr, "digest check: reference stitch failed: %s\n",
                 ref_sub.status().ToString().c_str());
    return false;
  }
  const uint64_t want = SubdivisionDigest(ref_sub.value());
  std::printf("digest check: PARK N=1102 reference digest %016llx\n",
              static_cast<unsigned long long>(want));

  for (const int threads : {1, 4, 8}) {
    dtree::sub::VoronoiOptions opts;
    opts.num_threads = threads;
    auto sub = dtree::sub::BuildVoronoiSubdivision(sites, area, opts);
    if (!sub.ok()) {
      std::fprintf(stderr, "digest check: grid Voronoi (%d threads): %s\n",
                   threads, sub.status().ToString().c_str());
      return false;
    }
    const uint64_t got = SubdivisionDigest(sub.value());
    const bool match = got == want;
    std::printf("digest check: %d thread(s) -> %016llx %s\n", threads,
                static_cast<unsigned long long>(got),
                match ? "OK" : "MISMATCH");
    if (!match) return false;
  }

  std::vector<uint8_t> serial_bytes;
  for (const int threads : {1, 4, 8}) {
    dtree::core::DTree::Options topt;
    topt.packet_capacity = 256;
    topt.num_threads = threads;
    auto tree = dtree::core::DTree::Build(ref_sub.value(), topt);
    if (!tree.ok()) {
      std::fprintf(stderr, "digest check: D-tree (%d threads): %s\n",
                   threads, tree.status().ToString().c_str());
      return false;
    }
    auto packets = dtree::core::SerializeDTree(tree.value());
    if (!packets.ok()) {
      std::fprintf(stderr, "digest check: serialize (%d threads): %s\n",
                   threads, packets.status().ToString().c_str());
      return false;
    }
    const dtree::bcast::PacketBuffer& p = packets.value();
    const std::vector<uint8_t> bytes(p.data(), p.data() + p.size_bytes());
    if (threads == 1) serial_bytes = bytes;
    const bool match = bytes == serial_bytes;
    uint64_t h = kFnvBasis;
    MixBytes(&h, bytes.data(), bytes.size());
    std::printf("digest check: D-tree bytes, %d thread(s) -> %016llx %s\n",
                threads, static_cast<unsigned long long>(h),
                match ? "OK" : "MISMATCH");
    if (!match) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using dtree::workload::ScaleDistribution;
  const BuildFlags flags = Parse(argc, argv);

  if (flags.digest_check && !DigestCheck()) {
    std::fprintf(stderr,
                 "FAIL: grid-pruned Voronoi or the D-tree diverges from "
                 "its serial build — build outputs are no longer "
                 "reproducible\n");
    return 1;
  }

  dtree::bench::BenchFlags rec_flags;
  rec_flags.bench_json = flags.bench_json;
  rec_flags.threads = flags.threads;
  rec_flags.seed = flags.seed;
  rec_flags.queries = 0;
  dtree::bench::BenchRecorder recorder("bench_build_scaling", rec_flags);
  dtree::MetricsRegistry metrics;

  const BBox area = dtree::workload::DefaultServiceArea();
  const char* phase_names[] = {"points",    "voronoi", "stitch",
                               "triangulate", "dtree_partition",
                               "paging",    "serialize"};

  std::printf("\n== Build-pipeline scaling (threads=%d) ==\n",
              flags.threads > 0 ? flags.threads
                                : dtree::ThreadPool::DefaultThreads());
  std::printf("%-14s", "dataset");
  for (const char* p : phase_names) std::printf(" %12s", p);
  std::printf(" %12s\n", "total");

  for (const int n : flags.ns) {
    for (const ScaleDistribution dist : flags.dists) {
      const std::string name =
          (dist == ScaleDistribution::kUniform ? "SCALE-U" : "SCALE-C") +
          std::to_string(n);
      std::vector<double> phase_s;
      const auto total_t0 = std::chrono::steady_clock::now();

      // -- points ---------------------------------------------------------
      auto t0 = std::chrono::steady_clock::now();
      dtree::Rng rng(flags.seed);
      std::vector<Point> sites;
      if (dist == ScaleDistribution::kUniform) {
        sites = dtree::workload::UniformPoints(n, area, &rng);
      } else {
        sites = dtree::workload::ClusteredPoints(n, area, std::max(2, n / 50),
                                                 0.03, &rng);
      }
      phase_s.push_back(SecondsSince(t0));

      // -- voronoi --------------------------------------------------------
      t0 = std::chrono::steady_clock::now();
      dtree::sub::VoronoiOptions vopts;
      vopts.num_threads = flags.threads;
      auto cells = dtree::sub::VoronoiCells(sites, area, vopts);
      if (!cells.ok()) {
        std::fprintf(stderr, "%s: voronoi: %s\n", name.c_str(),
                     cells.status().ToString().c_str());
        return 1;
      }
      phase_s.push_back(SecondsSince(t0));

      // -- stitch (FromPolygons: snap, T-junctions, twins) ----------------
      t0 = std::chrono::steady_clock::now();
      auto sub = dtree::sub::Subdivision::FromPolygons(area, cells.value(),
                                                       flags.threads);
      if (!sub.ok()) {
        std::fprintf(stderr, "%s: stitch: %s\n", name.c_str(),
                     sub.status().ToString().c_str());
        return 1;
      }
      phase_s.push_back(SecondsSince(t0));

      // -- triangulate (the trian-tree baseline's substrate) --------------
      t0 = std::chrono::steady_clock::now();
      size_t num_tris = 0;
      {
        std::vector<dtree::geom::Triangle> tris;
        std::vector<Point> ring;
        for (int i = 0; i < sub.value().NumRegions(); ++i) {
          tris.clear();
          ring.clear();
          for (int v : sub.value().Ring(i)) {
            ring.push_back(sub.value().vertices()[v]);
          }
          const dtree::Status st = dtree::sub::EarClipTriangulate(ring, &tris);
          if (!st.ok()) {
            std::fprintf(stderr, "%s: triangulate region %d: %s\n",
                         name.c_str(), i, st.ToString().c_str());
            return 1;
          }
          num_tris += tris.size();
        }
      }
      phase_s.push_back(SecondsSince(t0));

      // -- D-tree partition + paging --------------------------------------
      dtree::core::DTree::Options topt;
      topt.packet_capacity = 256;
      topt.num_threads = flags.threads;
      dtree::core::DTree::BuildTimings timings;
      auto tree = dtree::core::DTree::Build(sub.value(), topt, &timings);
      if (!tree.ok()) {
        std::fprintf(stderr, "%s: d-tree: %s\n", name.c_str(),
                     tree.status().ToString().c_str());
        return 1;
      }
      phase_s.push_back(timings.partition_seconds);
      phase_s.push_back(timings.paging_seconds);

      // -- serialize ------------------------------------------------------
      t0 = std::chrono::steady_clock::now();
      auto packets = dtree::core::SerializeDTree(tree.value());
      if (!packets.ok()) {
        std::fprintf(stderr, "%s: serialize: %s\n", name.c_str(),
                     packets.status().ToString().c_str());
        return 1;
      }
      phase_s.push_back(SecondsSince(t0));

      const double total_s = SecondsSince(total_t0);
      std::printf("%-14s", name.c_str());
      for (size_t i = 0; i < phase_s.size(); ++i) {
        std::printf(" %12.3f", phase_s[i]);
        metrics.histogram(std::string("build/") + phase_names[i] + "_s")
            ->Add(phase_s[i]);
        recorder.Record(name + "/" + phase_names[i], phase_s[i],
                        n / std::max(phase_s[i], 1e-12));
      }
      std::printf(" %12.3f\n", total_s);
      metrics.histogram("build/total_s")->Add(total_s);
      recorder.Record(name + "/total", total_s,
                      n / std::max(total_s, 1e-12));
      std::fprintf(stderr,
                   "%s: %d regions -> %zu triangles, %d tree nodes, "
                   "%d packets\n",
                   name.c_str(), sub.value().NumRegions(), num_tris,
                   tree.value().num_nodes(), tree.value().NumIndexPackets());

      // -- optional pre-grid serial reference -----------------------------
      if (flags.serial_baseline_max > 0 && n <= flags.serial_baseline_max) {
        t0 = std::chrono::steady_clock::now();
        auto ref = dtree::sub::VoronoiCellsReference(sites, area);
        const double ref_s = SecondsSince(t0);
        if (!ref.ok()) {
          std::fprintf(stderr, "%s: reference voronoi: %s\n", name.c_str(),
                       ref.status().ToString().c_str());
          return 1;
        }
        recorder.Record(name + "/voronoi_serial_reference", ref_s,
                        n / std::max(ref_s, 1e-12));
        // End-to-end speedup, conservatively: the pre-PR pipeline is the
        // reference Voronoi plus the (already improved) downstream phases.
        const double pre_pr_total = total_s - phase_s[1] + ref_s;
        recorder.Record(name + "/total_pre_pr_estimate", pre_pr_total,
                        n / std::max(pre_pr_total, 1e-12));
        std::printf("%-14s serial reference voronoi %.3fs -> end-to-end "
                    "speedup %.1fx (voronoi alone %.1fx)\n",
                    name.c_str(), ref_s, pre_pr_total / total_s,
                    ref_s / std::max(phase_s[1], 1e-12));
      }
    }
  }

  std::printf("\nphase histograms (seconds; across sweep cells)\n");
  for (const auto& [hname, h] : metrics.histograms()) {
    std::printf("  %-24s count=%llu mean=%.3f max=%.3f\n", hname.c_str(),
                static_cast<unsigned long long>(h.TotalCount()), h.Mean(),
                h.Max());
  }
  return 0;
}
