// Shared harness code for the paper-reproduction benchmark binaries.
//
// Every figure binary sweeps (dataset x index x packet capacity) cells,
// runs the broadcast-channel experiment, and prints the series the paper
// plots. Each experiment cell is wall-clock timed and appended to a
// machine-readable JSON file so the perf trajectory is tracked across
// PRs. Flags:
//   --queries=N        queries per cell (default 20000; paper used 1e6)
//   --seed=S           RNG seed (default 42)
//   --datasets=a,b     subset of UNIFORM,HOSPITAL,PARK
//   --capacities=...   subset of 64,128,256,512,1024,2048
//   --threads=T        experiment threads (0 = hardware concurrency)
//   --bench-json=PATH  timing output (default BENCH_experiment.json;
//                      empty disables)
//   --trace-out=PATH   per-query JSONL trace output (default off); every
//                      cell appends lines labeled with its cell id
//   --telemetry-out=PATH  windowed telemetry timeline JSONL (default off;
//                      honored by the benches that attach FleetTelemetry)
//   --flight-out=PATH  flight-recorder black-box JSONL (default off)
//   --prom-out=PATH    Prometheus text-exposition snapshot (default off)

#ifndef DTREE_BENCH_BENCH_UTIL_H_
#define DTREE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/experiment.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "dtree/dtree.h"
#include "workload/datasets.h"

// The commit the binary was built from: the bench_git_sha target writes
// bench_git_sha.h at every build of bench/. bench_suite, built without
// bench/, defines DTREE_BENCH_GIT_SHA on its command line instead.
#ifndef DTREE_BENCH_GIT_SHA
#include "bench_git_sha.h"
#endif

namespace dtree::bench {

enum class IndexKind { kDTree, kRStar, kTrapTree, kTrianTree };

inline const char* KindName(IndexKind k) {
  switch (k) {
    case IndexKind::kDTree:
      return "d-tree";
    case IndexKind::kRStar:
      return "r*-tree";
    case IndexKind::kTrapTree:
      return "trap-tree";
    case IndexKind::kTrianTree:
      return "trian-tree";
  }
  return "?";
}

inline constexpr IndexKind kAllKinds[] = {
    IndexKind::kDTree, IndexKind::kRStar, IndexKind::kTrapTree,
    IndexKind::kTrianTree};

inline Result<std::unique_ptr<bcast::AirIndex>> BuildIndex(
    IndexKind kind, const sub::Subdivision& sub, int capacity) {
  switch (kind) {
    case IndexKind::kDTree: {
      core::DTree::Options o;
      o.packet_capacity = capacity;
      Result<core::DTree> r = core::DTree::Build(sub, o);
      if (!r.ok()) return r.status();
      return std::unique_ptr<bcast::AirIndex>(
          new core::DTree(std::move(r).value()));
    }
    case IndexKind::kRStar: {
      baselines::RStarTree::Options o;
      o.packet_capacity = capacity;
      Result<baselines::RStarTree> r = baselines::RStarTree::Build(sub, o);
      if (!r.ok()) return r.status();
      return std::unique_ptr<bcast::AirIndex>(
          new baselines::RStarTree(std::move(r).value()));
    }
    case IndexKind::kTrapTree: {
      baselines::TrapMap::Options o;
      o.packet_capacity = capacity;
      Result<baselines::TrapMap> r = baselines::TrapMap::Build(sub, o);
      if (!r.ok()) return r.status();
      return std::unique_ptr<bcast::AirIndex>(
          new baselines::TrapMap(std::move(r).value()));
    }
    case IndexKind::kTrianTree: {
      baselines::TrianTree::Options o;
      o.packet_capacity = capacity;
      Result<baselines::TrianTree> r = baselines::TrianTree::Build(sub, o);
      if (!r.ok()) return r.status();
      return std::unique_ptr<bcast::AirIndex>(
          new baselines::TrianTree(std::move(r).value()));
    }
  }
  return Status::InvalidArgument("unknown index kind");
}

struct BenchFlags {
  int queries = 20000;
  uint64_t seed = 42;
  std::vector<std::string> datasets{"UNIFORM", "HOSPITAL", "PARK"};
  std::vector<int> capacities{64, 128, 256, 512, 1024, 2048};
  int threads = 0;  ///< experiment threads; 0 = hardware concurrency
  std::string bench_json = "BENCH_experiment.json";
  std::string trace_out;      ///< JSONL query traces; empty disables
  std::string telemetry_out;  ///< windowed timeline JSONL; empty disables
  std::string flight_out;     ///< flight-recorder JSONL; empty disables
  std::string prom_out;       ///< Prometheus text snapshot; empty disables
};

/// Process-wide JSONL sink for --trace-out, shared by every cell of a
/// bench run (lines carry the cell id). Created on first use, nullptr
/// when the flag is unset; flushed when the process exits.
inline bcast::JsonlTraceSink* GlobalTraceSink(const BenchFlags& flags) {
  if (flags.trace_out.empty()) return nullptr;
  static std::unique_ptr<bcast::JsonlTraceSink> sink =
      std::make_unique<bcast::JsonlTraceSink>(flags.trace_out);
  return sink->ok() ? sink.get() : nullptr;
}

/// Wires --trace-out into an ExperimentOptions for benches that run the
/// experiment themselves (outside RunCell); subsequent JSONL lines carry
/// `cell_id`. No-op when the flag is unset.
inline void AttachTrace(const BenchFlags& flags, const std::string& cell_id,
                        bcast::ExperimentOptions* opt) {
  bcast::JsonlTraceSink* trace = GlobalTraceSink(flags);
  if (trace != nullptr) {
    trace->set_label(cell_id);
    opt->trace_sink = trace;
  }
}

/// Per-cell latency/tuning distribution summary plus fault-counter
/// totals, derived from the experiment's histograms and written next to
/// the timings so the perf trajectory tracks percentiles and the fault
/// ladder's activity, not just means.
struct CellPercentiles {
  bool has = false;
  double p50_latency = 0.0, p95_latency = 0.0, p99_latency = 0.0;
  double max_latency = 0.0;
  double p50_tuning = 0.0, p95_tuning = 0.0, p99_tuning = 0.0;
  double max_tuning = 0.0;
  /// MetricsRegistry fault totals; all zero on a fault-free run.
  bool has_counters = false;
  int64_t total_retries = 0;
  int64_t total_lost_packets = 0;
  int64_t total_corrupted_packets = 0;
  int64_t unrecoverable_queries = 0;
  int64_t fallback_queries = 0;

  /// Both drivers record the same per-query histograms and fault totals
  /// (bcast::QueryStats), so the cell schema is shared.
  static CellPercentiles From(const bcast::QueryStats& res) {
    CellPercentiles p;
    const Histogram* lat = res.metrics.FindHistogram(bcast::kLatencyHist);
    const Histogram* tun =
        res.metrics.FindHistogram(bcast::kTuningTotalHist);
    if (lat == nullptr || tun == nullptr) return p;
    p.has = true;
    p.p50_latency = lat->Percentile(0.50);
    p.p95_latency = lat->Percentile(0.95);
    p.p99_latency = lat->Percentile(0.99);
    p.max_latency = lat->Max();
    p.p50_tuning = tun->Percentile(0.50);
    p.p95_tuning = tun->Percentile(0.95);
    p.p99_tuning = tun->Percentile(0.99);
    p.max_tuning = tun->Max();
    p.has_counters = true;
    p.total_retries = res.total_retries;
    p.total_lost_packets = res.total_lost_packets;
    p.total_corrupted_packets = res.total_corrupted_packets;
    p.unrecoverable_queries = res.unrecoverable_queries;
    p.fallback_queries = res.fallback_queries;
    return p;
  }
};

/// The "host" block of every BENCH_*.json, with bench_suite's keys: the
/// machine's core count, the worker threads the run asked for, and the
/// build that ran it (defines and the generated sha header from
/// bench/CMakeLists.txt).
inline std::string BenchHostJson(int threads) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"threads\": %d, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"native_arch\": %s, "
                "\"git_sha\": \"%s\"}",
                ThreadPool::DefaultThreads(), threads, DTREE_BENCH_COMPILER,
                DTREE_BENCH_BUILD_TYPE,
                DTREE_BENCH_NATIVE_ARCH ? "true" : "false",
                DTREE_BENCH_GIT_SHA);
  return buf;
}

/// Collects per-cell wall-clock timings (plus optional distribution
/// percentiles) and writes them as JSON on Flush()/destruction:
///   {"bench": ..., "host": {...}, "threads": T, "cells":
///    [{"cell": id, "wall_s": s, "qps": q, "threads": T,
///      "p50_latency": ..., ..., "max_tuning": ...}, ...]}
class BenchRecorder {
 public:
  BenchRecorder(std::string bench_name, const BenchFlags& flags)
      : bench_name_(std::move(bench_name)), path_(flags.bench_json),
        threads_(flags.threads > 0 ? flags.threads
                                   : ThreadPool::DefaultThreads()),
        queries_(flags.queries), seed_(flags.seed) {}

  ~BenchRecorder() { Flush(); }

  /// `cell_threads` overrides the flag-derived thread count for benches
  /// that vary it per cell (the scaling bench); <= 0 keeps the default.
  /// `extra_json` is emitted verbatim inside the cell object — it must
  /// be empty or a string of the form `, "key": value, ...` (leading
  /// comma included) of pre-formatted JSON fields.
  void Record(const std::string& cell, double wall_s, double qps,
              int cell_threads = 0,
              const CellPercentiles& pct = CellPercentiles{},
              std::string extra_json = "") {
    cells_.push_back({cell, wall_s, qps,
                      cell_threads > 0 ? cell_threads : threads_, pct,
                      std::move(extra_json)});
  }

  void Flush() {
    if (path_.empty() || flushed_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"host\": %s,\n"
                 "  \"threads\": %d,\n"
                 "  \"queries_per_cell\": %d,\n  \"seed\": %llu,\n"
                 "  \"cells\": [",
                 bench_name_.c_str(), BenchHostJson(threads_).c_str(),
                 threads_, queries_, static_cast<unsigned long long>(seed_));
    for (size_t i = 0; i < cells_.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"cell\": \"%s\", \"wall_s\": %.6f, "
                   "\"qps\": %.1f, \"threads\": %d",
                   i == 0 ? "" : ",", cells_[i].cell.c_str(),
                   cells_[i].wall_s, cells_[i].qps, cells_[i].threads);
      const CellPercentiles& p = cells_[i].pct;
      if (p.has) {
        std::fprintf(f,
                     ", \"p50_latency\": %.3f, \"p95_latency\": %.3f, "
                     "\"p99_latency\": %.3f, \"max_latency\": %.3f, "
                     "\"p50_tuning\": %.3f, \"p95_tuning\": %.3f, "
                     "\"p99_tuning\": %.3f, \"max_tuning\": %.3f",
                     p.p50_latency, p.p95_latency, p.p99_latency,
                     p.max_latency, p.p50_tuning, p.p95_tuning,
                     p.p99_tuning, p.max_tuning);
      }
      if (p.has_counters) {
        std::fprintf(f,
                     ", \"retries_total\": %lld, \"lost_total\": %lld, "
                     "\"corrupted_total\": %lld, \"unrecoverable\": %lld, "
                     "\"fallback\": %lld",
                     static_cast<long long>(p.total_retries),
                     static_cast<long long>(p.total_lost_packets),
                     static_cast<long long>(p.total_corrupted_packets),
                     static_cast<long long>(p.unrecoverable_queries),
                     static_cast<long long>(p.fallback_queries));
      }
      if (!cells_[i].extra_json.empty()) {
        std::fprintf(f, "%s", cells_[i].extra_json.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    flushed_ = true;
    std::fprintf(stderr, "cell timings written to %s (%zu cells)\n",
                 path_.c_str(), cells_.size());
  }

 private:
  struct Cell {
    std::string cell;
    double wall_s;
    double qps;
    int threads;
    CellPercentiles pct;
    std::string extra_json;
  };

  std::string bench_name_;
  std::string path_;
  int threads_;
  int queries_;
  uint64_t seed_;
  std::vector<Cell> cells_;
  bool flushed_ = false;
};

/// Writes `content` to `path` (truncating); false + stderr on failure.
inline bool WriteTextFile(const std::string& path,
                          const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

/// Wall-clock seconds elapsed since `t0`.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::vector<std::string> SplitCsv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--queries=", 10) == 0) {
      flags.queries = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      flags.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--datasets=", 11) == 0) {
      flags.datasets = SplitCsv(arg + 11);
    } else if (std::strncmp(arg, "--capacities=", 13) == 0) {
      flags.capacities.clear();
      for (const std::string& c : SplitCsv(arg + 13)) {
        flags.capacities.push_back(std::atoi(c.c_str()));
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      flags.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
      flags.bench_json = arg + 13;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      flags.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
      flags.telemetry_out = arg + 16;
    } else if (std::strncmp(arg, "--flight-out=", 13) == 0) {
      flags.flight_out = arg + 13;
    } else if (std::strncmp(arg, "--prom-out=", 11) == 0) {
      flags.prom_out = arg + 11;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --queries= --seed= "
                   "--datasets= --capacities= --threads= --bench-json= "
                   "--trace-out= --telemetry-out= --flight-out= "
                   "--prom-out=)\n",
                   arg);
      std::exit(2);
    }
  }
  return flags;
}

inline Result<std::vector<workload::Dataset>> LoadDatasets(
    const BenchFlags& flags) {
  std::vector<workload::Dataset> out;
  for (const std::string& name : flags.datasets) {
    Result<workload::Dataset> d =
        name == "UNIFORM"    ? workload::MakeUniformDataset()
        : name == "HOSPITAL" ? workload::MakeHospitalDataset()
        : name == "PARK"     ? workload::MakeParkDataset()
                             : Result<workload::Dataset>(Status::InvalidArgument(
                                   "unknown dataset " + name));
    if (!d.ok()) return d.status();
    out.push_back(std::move(d).value());
  }
  return out;
}

/// Runs one (dataset, kind, capacity) cell end to end. The experiment's
/// wall-clock time, throughput, and latency/tuning percentiles are
/// recorded under the cell id "<dataset>/<index>/cap<capacity>" when
/// `recorder` is non-null; with --trace-out set, every query of the cell
/// is appended to the shared JSONL sink labeled with that cell id.
inline Result<bcast::ExperimentResult> RunCell(const workload::Dataset& ds,
                                               IndexKind kind, int capacity,
                                               const BenchFlags& flags,
                                               BenchRecorder* recorder) {
  Result<std::unique_ptr<bcast::AirIndex>> index =
      BuildIndex(kind, ds.subdivision, capacity);
  if (!index.ok()) return index.status();
  const std::string cell_id =
      ds.name + "/" + KindName(kind) + "/cap" + std::to_string(capacity);
  bcast::ExperimentOptions opt;
  opt.packet_capacity = capacity;
  opt.num_queries = flags.queries;
  opt.seed = flags.seed;
  opt.num_threads = flags.threads;
  bcast::JsonlTraceSink* trace = GlobalTraceSink(flags);
  if (trace != nullptr) {
    trace->set_label(cell_id);
    opt.trace_sink = trace;
  }
  const auto t0 = std::chrono::steady_clock::now();
  Result<bcast::ExperimentResult> res =
      bcast::RunExperiment(*index.value(), ds.subdivision, nullptr, opt);
  const double wall_s = SecondsSince(t0);
  if (!res.ok()) return res.status();
  if (recorder != nullptr) {
    recorder->Record(cell_id, wall_s,
                     flags.queries / std::max(wall_s, 1e-12), 0,
                     CellPercentiles::From(res.value()));
  }
  bcast::ExperimentResult r = std::move(res).value();
  r.index_name = KindName(kind);
  return r;
}

/// Prints one figure's table: rows = packet capacity, one column per
/// index; `value` selects the metric. A second table reports the measured
/// per-cell query throughput (thousand queries / second) and the total
/// wall-clock time for the sweep.
template <typename ValueFn>
void PrintFigureTable(const char* title, const workload::Dataset& ds,
                      const BenchFlags& flags, BenchRecorder* recorder,
                      ValueFn value) {
  std::printf("\n%s — dataset %s (N=%d)\n", title, ds.name.c_str(),
              ds.subdivision.NumRegions());
  std::printf("%-10s", "packet");
  for (IndexKind k : kAllKinds) std::printf(" %12s", KindName(k));
  std::printf("\n");
  std::vector<std::vector<double>> kqps_rows;
  const auto sweep_t0 = std::chrono::steady_clock::now();
  for (int capacity : flags.capacities) {
    std::printf("%-10d", capacity);
    std::vector<double> kqps_row;
    for (IndexKind k : kAllKinds) {
      const auto t0 = std::chrono::steady_clock::now();
      Result<bcast::ExperimentResult> res =
          RunCell(ds, k, capacity, flags, recorder);
      kqps_row.push_back(flags.queries /
                         std::max(SecondsSince(t0), 1e-12) / 1000.0);
      if (!res.ok()) {
        std::printf(" %12s", "ERR");
        std::fprintf(stderr, "cell %s/%s/%d failed: %s\n", ds.name.c_str(),
                     KindName(k), capacity, res.status().ToString().c_str());
        continue;
      }
      std::printf(" %12.3f", value(res.value()));
    }
    std::printf("\n");
    kqps_rows.push_back(std::move(kqps_row));
  }
  const double sweep_s = SecondsSince(sweep_t0);
  std::printf("timing — kqueries/sec per cell (threads=%d, wall %.2fs "
              "total, incl. index build)\n",
              flags.threads > 0 ? flags.threads : ThreadPool::DefaultThreads(),
              sweep_s);
  for (size_t row = 0; row < kqps_rows.size(); ++row) {
    std::printf("%-10d", flags.capacities[row]);
    for (double kqps : kqps_rows[row]) std::printf(" %12.1f", kqps);
    std::printf("\n");
  }
}

}  // namespace dtree::bench

#endif  // DTREE_BENCH_BENCH_UTIL_H_
