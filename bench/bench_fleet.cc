// Fleet-engine bench: one broadcast cycle clock, a million concurrent
// clients. Measures how fast the event-driven engine (broadcast/fleet.h)
// chews through wake-ups and verifies, with a nonzero exit on violation,
// the two properties the engine is built on:
//
//   1. Determinism: FleetResult — every field, histograms included — is
//      bit-identical at 1, 2, and 4 worker threads (fixed 64-shard
//      layout, shard-ordered merge).
//   2. Driver agreement: both the fleet and BroadcastChannel::Simulate
//      drive the one access protocol (broadcast/access.h), the fleet in
//      absolute time and Simulate on the arrival wrapped into the cycle;
//      a one-client fleet's query, replayed through Simulate with the
//      same streams, matches field-for-field (cycle-shift invariance).
//
// Extra flags (on top of the shared ones):
//   --clients=N      concurrent clients (default 1000000)
//   --cycles=C       simulated horizon in broadcast cycles (default 2)
//   --rate=R         per-client queries per cycle (default 1)
//   --churn=P        per-query departure probability (default 0.05)
//   --loss-rate=L    i.i.d. packet loss rate (default 0.1; 0 = lossless)
//   --capacity=N     packet capacity (default 256)
// The shared --threads flag is ignored: the bench always sweeps 1/2/4.
//
// With --telemetry-out / --flight-out / --prom-out set, a FleetTelemetry
// sink rides along on every run of the sweep and the bench additionally
// verifies (nonzero exit on violation) that
//
//   3. the timeline JSONL, flight-recorder JSONL and Prometheus snapshot
//      are byte-identical at 1, 2, and 4 threads, and
//   4. a 1-thread run without telemetry gives the sweep's FleetResult —
//      observation must not perturb the simulation. Both runs take the
//      engine's one schedule (each query runs to its last wake-up at
//      issue); with telemetry each query also writes its events into a
//      trace, which telemetry reads once the query has run.
//
// With --trace-out set, fleet traces also feed a CycleProfiler, printing
// the per-D-tree-level read attribution for the fleet workload.

#include "bench_util.h"

#include <cinttypes>

#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"

using dtree::bcast::FleetResult;

int main(int argc, char** argv) {
  using namespace dtree::bench;
  namespace bcast = dtree::bcast;
  int64_t clients = 1000000;
  double cycles = 2.0;
  double rate = 1.0;
  double churn = 0.05;
  double loss_rate = 0.1;
  int capacity = 256;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::strtoll(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--cycles=", 9) == 0) {
      cycles = std::atof(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--rate=", 7) == 0) {
      rate = std::atof(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--churn=", 8) == 0) {
      churn = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--loss-rate=", 12) == 0) {
      loss_rate = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = std::atoi(argv[i] + 11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  if (flags.bench_json == "BENCH_experiment.json") {
    flags.bench_json = "BENCH_fleet.json";
  }

  auto ds = dtree::workload::MakeUniformDataset();
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto index = BuildIndex(IndexKind::kDTree, ds.value().subdivision,
                          capacity);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  bcast::FleetOptions fopt;
  fopt.packet_capacity = capacity;
  fopt.num_clients = clients;
  fopt.sim_cycles = cycles;
  fopt.queries_per_cycle = rate;
  fopt.churn = churn;
  fopt.seed = flags.seed;
  if (loss_rate > 0.0) {
    fopt.loss.model = bcast::LossModel::kIid;
    fopt.loss.loss_rate = loss_rate;
    fopt.loss.seed = flags.seed + 1;
  }

  bool ok = true;

  // --- Driver agreement: one client, one query, replayed by hand through
  // the public stream helpers and the synchronous driver.
  {
    bcast::FleetOptions one = fopt;
    one.num_clients = 1;
    one.sim_cycles = 1.0;
    one.queries_per_cycle = 1e-6;  // exactly the join-time query
    one.churn = 0.0;
    auto fleet = bcast::RunFleet(*index.value(), ds.value().subdivision,
                                 one);
    if (!fleet.ok() || fleet.value().queries != 1) {
      std::fprintf(stderr, "FAIL: single-client fleet did not run\n");
      return 1;
    }
    auto ch = bcast::BroadcastChannel::Create(
        index.value()->NumIndexPackets(),
        ds.value().subdivision.NumRegions(), one.channel_options());
    auto sampler = bcast::QuerySampler::Create(ds.value().subdivision,
                                               one.distribution, {});
    DTREE_CHECK(ch.ok() && sampler.ok());
    const uint64_t key = bcast::FleetClientKey(one.seed, 0);
    dtree::StreamRng join_rng =
        dtree::StreamRng::ForStream(key, bcast::FleetJoinStream());
    const double arrival = join_rng.Uniform(
        0.0, static_cast<double>(ch.value().cycle_packets()));
    dtree::StreamRng point_rng =
        dtree::StreamRng::ForStream(key, bcast::FleetPointStream(0));
    bcast::ProbeTrace trace;
    DTREE_CHECK(
        index.value()->ProbeInto(sampler.value().Draw(&point_rng), &trace)
            .ok());
    auto out = ch.value().Simulate(trace, arrival,
                                   bcast::FleetQueryLossStream(key, 0));
    DTREE_CHECK(out.ok());
    const FleetResult& fr = fleet.value();
    const auto& o = out.value();
    if (fr.mean_latency != o.latency ||
        fr.mean_tuning_index != static_cast<double>(o.tuning_index) ||
        fr.mean_tuning_total != static_cast<double>(o.tuning_total()) ||
        fr.total_retries != o.retries ||
        fr.total_lost_packets != o.lost_packets ||
        fr.total_corrupted_packets != o.corrupted_packets ||
        fr.unrecoverable_queries != (o.unrecoverable ? 1 : 0) ||
        fr.fallback_queries != (o.fallback_scan ? 1 : 0)) {
      std::fprintf(stderr,
                   "FAIL: single-client fleet does not reproduce Simulate "
                   "(latency %.17g vs %.17g)\n",
                   fr.mean_latency, o.latency);
      ok = false;
    } else {
      std::printf("driver agreement: fleet(1 client) == Simulate ✓\n");
    }
  }

  // --- The fleet itself, swept over worker threads.
  std::printf("== Fleet bench ==\n");
  std::printf(
      "dataset %s, cap %d, %lld clients, %.3g cycles, rate %.3g/cycle, "
      "churn %.3g, loss %.3g\n",
      ds.value().name.c_str(), capacity, static_cast<long long>(clients),
      cycles, rate, churn, loss_rate);
  std::printf("%-8s %12s %12s %10s %10s %8s %10s %12s\n", "threads",
              "queries", "sessions", "latency", "tuning", "unrec",
              "wall_s", "clients/s");

  // Channel layout (for the CycleProfiler's cycle length); identical to
  // the one RunFleet builds from the same options.
  auto layout = bcast::BroadcastChannel::Create(
      index.value()->NumIndexPackets(), ds.value().subdivision.NumRegions(),
      fopt.channel_options());
  DTREE_CHECK(layout.ok());
  const int64_t cycle_packets = layout.value().cycle_packets();

  const bool telemetry_on = !flags.telemetry_out.empty() ||
                            !flags.flight_out.empty() ||
                            !flags.prom_out.empty();
  bcast::FleetTelemetry telemetry;
  const std::string tlabel =
      ds.value().name + "/fleet/c" + std::to_string(clients);
  std::string ref_timeline, ref_flight, ref_prom;
  bool have_telemetry_reference = false;

  BenchRecorder recorder("bench_fleet", flags);
  FleetResult reference;
  bool have_reference = false;
  std::unique_ptr<bcast::CycleProfiler> profiler;
  for (int threads : {1, 2, 4}) {
    bcast::FleetOptions run = fopt;
    run.num_threads = threads;
    const std::string cell = ds.value().name + "/fleet/c" +
                             std::to_string(clients) + "/t" +
                             std::to_string(threads);
    bcast::JsonlTraceSink* trace = GlobalTraceSink(flags);
    std::unique_ptr<bcast::TeeTraceSink> tee;
    if (trace != nullptr) {
      trace->set_label(cell);
      // Per-D-tree-level read attribution for the fleet workload; the
      // last sweep run's profile is printed (traces are thread-count
      // invariant, so every run sees the same stream).
      profiler =
          std::make_unique<bcast::CycleProfiler>(cycle_packets);
      tee = std::make_unique<bcast::TeeTraceSink>(
          std::vector<bcast::TraceSink*>{trace, profiler.get()});
      run.trace_sink = tee.get();
    }
    if (telemetry_on) run.telemetry = &telemetry;
    const auto t0 = std::chrono::steady_clock::now();
    auto res = bcast::RunFleet(*index.value(), ds.value().subdivision, run);
    const double wall_s = SecondsSince(t0);
    if (!res.ok()) {
      std::fprintf(stderr, "fleet run failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    const FleetResult& r = res.value();
    recorder.Record(cell, wall_s,
                    static_cast<double>(r.queries) /
                        std::max(wall_s, 1e-12),
                    threads, CellPercentiles::From(r));
    std::printf("%-8d %12lld %12lld %10.2f %10.3f %8lld %10.2f %12.0f\n",
                threads, static_cast<long long>(r.queries),
                static_cast<long long>(r.sessions), r.mean_latency,
                r.mean_tuning_total,
                static_cast<long long>(r.unrecoverable_queries), wall_s,
                static_cast<double>(clients) / std::max(wall_s, 1e-12));
    if (!have_reference) {
      reference = r;
      have_reference = true;
    } else if (r != reference) {
      std::fprintf(stderr,
                   "FAIL: FleetResult at %d threads diverges from the "
                   "1-thread run (queries %lld vs %lld, latency %.17g vs "
                   "%.17g)\n",
                   threads, static_cast<long long>(r.queries),
                   static_cast<long long>(reference.queries),
                   r.mean_latency, reference.mean_latency);
      ok = false;
    }
    if (telemetry_on) {
      const bcast::TelemetryTotals totals = bcast::TotalsFromFleet(r);
      const std::string timeline = telemetry.TimelineJsonl(tlabel, &totals);
      const std::string& flight = telemetry.flight_records();
      const std::string prom = telemetry.PrometheusText();
      if (!have_telemetry_reference) {
        ref_timeline = timeline;
        ref_flight = flight;
        ref_prom = prom;
        have_telemetry_reference = true;
      } else if (timeline != ref_timeline || flight != ref_flight ||
                 prom != ref_prom) {
        std::fprintf(stderr,
                     "FAIL: telemetry output at %d threads diverges from "
                     "the 1-thread run (timeline %s, flight %s, prom %s)\n",
                     threads,
                     timeline == ref_timeline ? "same" : "DIFFERS",
                     flight == ref_flight ? "same" : "DIFFERS",
                     prom == ref_prom ? "same" : "DIFFERS");
        ok = false;
      }
    }
  }
  if (telemetry_on) {
    bcast::FleetOptions bare = fopt;
    bare.num_threads = 1;
    auto res = bcast::RunFleet(*index.value(), ds.value().subdivision, bare);
    if (!res.ok()) {
      std::fprintf(stderr, "fleet run without telemetry failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    if (res.value() != reference) {
      std::fprintf(stderr,
                   "FAIL: FleetResult without telemetry diverges from the "
                   "telemetry-attached run (queries %lld vs %lld, latency "
                   "%.17g vs %.17g)\n",
                   static_cast<long long>(res.value().queries),
                   static_cast<long long>(reference.queries),
                   res.value().mean_latency, reference.mean_latency);
      ok = false;
    } else {
      std::printf("telemetry: FleetResult without telemetry == with ✓\n");
    }
  }
  if (have_telemetry_reference && ok) {
    std::printf("telemetry: timeline+flight+prom byte-identical at "
                "1/2/4 threads ✓\n");
    if (!flags.telemetry_out.empty() &&
        !WriteTextFile(flags.telemetry_out, ref_timeline)) {
      ok = false;
    }
    if (!flags.flight_out.empty() &&
        !WriteTextFile(flags.flight_out, ref_flight)) {
      ok = false;
    }
    if (!flags.prom_out.empty() &&
        !WriteTextFile(flags.prom_out, ref_prom)) {
      ok = false;
    }
  }
  if (profiler != nullptr) {
    std::printf("fleet read attribution by D-tree level (%" PRIu64
                " traced queries):\n",
                profiler->queries());
    const auto& levels = profiler->level_reads();
    for (size_t d = 0; d < levels.size(); ++d) {
      std::printf("  level %zu: %lld index reads\n", d,
                  static_cast<long long>(levels[d]));
    }
    if (profiler->unattributed_reads() > 0) {
      std::printf("  unattributed: %lld\n",
                  static_cast<long long>(profiler->unattributed_reads()));
    }
    if (static_cast<int64_t>(profiler->queries()) != reference.queries) {
      std::fprintf(stderr,
                   "FAIL: CycleProfiler saw %llu traces but the fleet "
                   "completed %lld queries\n",
                   static_cast<unsigned long long>(profiler->queries()),
                   static_cast<long long>(reference.queries));
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: fleet invariants violated\n");
    return 1;
  }
  return 0;
}
