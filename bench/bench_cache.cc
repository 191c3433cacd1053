// E18: semantic region cache for mobile clients (bench_cache).
//
// Sweeps mobility model x hop scale x cache size x loss rate x epoch
// update rate over the fleet engine and measures what the cache buys:
// hit rate and mean tuning saved against an identical cache-off twin
// (the mobility walk's RNG streams are independent of the cache, so both
// runs see exactly the same query points).
//
// Every cache-on run has CacheOptions::verify_hits set: each hit is
// replayed against a forced cold probe inside the engine, and any
// divergence fails the run — and this bench — with a nonzero exit.
// Two more invariants are enforced (nonzero exit on violation):
//
//   1. Determinism: FleetResult — every field, histograms included — is
//      bit-identical at 1, 4 and 8 worker threads.
//   2. Efficacy: under the smallest Gaussian hop scale the hit rate
//      exceeds 50% and the cache saves tuning vs the cache-off twin.
//
// Extra flags (on top of the shared ones):
//   --clients=N      concurrent clients (default 20000)
//   --cycles=C       simulated horizon in broadcast cycles (default 4)
//   --rate=R         per-client queries per cycle (default 2)
//   --churn=P        per-query departure probability (default 0.02)
//   --hop-scales=... Gaussian hop sigmas / waypoint steps (default 4,16,64)
//   --cache-kb=...   per-client cache budgets in KB (default 16)
//   --loss-rates=... i.i.d. packet loss rates (default 0,0.1)
//   --epoch-counts=... broadcast epochs inside the horizon (default 1,4):
//                    K > 1 splits the horizon into K stretches with
//                    distinct epoch ids over the SAME index, so every
//                    observed switch flushes caches without changing any
//                    answer (verify_hits stays a strict differential)
//   --capacity=N     packet capacity (default 256)
// The shared --threads flag is ignored: the thread sweep is fixed 1/4/8.
//
// With --telemetry-out / --flight-out / --prom-out set, a FleetTelemetry
// sink rides along on the thread sweep and its exports (which include the
// cache_hits/misses/evictions/invalidations series) must be byte-identical
// across thread counts. With --trace-out set, traces of the sweep cell are
// written for tools/trace_summary.py --check (cache-hit lines must carry
// zero tuning and no awake reads).

#include "bench_util.h"

#include <algorithm>
#include <cinttypes>

#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "workload/mobility.h"

namespace {

using dtree::bcast::FleetResult;

std::vector<double> ParseDoubles(const char* s) {
  std::vector<double> out;
  while (*s != '\0') {
    char* end = nullptr;
    out.push_back(std::strtod(s, &end));
    if (end == s) break;
    s = (*end == ',') ? end + 1 : end;
  }
  return out;
}

std::vector<int> ParseInts(const char* s) {
  std::vector<int> out;
  for (double v : ParseDoubles(s)) out.push_back(static_cast<int>(v));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtree::bench;
  namespace bcast = dtree::bcast;
  namespace workload = dtree::workload;
  int64_t clients = 20000;
  double cycles = 4.0;
  double rate = 2.0;
  double churn = 0.02;
  int capacity = 256;
  std::vector<double> hop_scales{4.0, 16.0, 64.0};
  std::vector<int> cache_kb{16};
  std::vector<double> loss_rates{0.0, 0.1};
  std::vector<int> epoch_counts{1, 4};
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
    } else if (std::strncmp(argv[i], "--hop-scales=", 13) == 0) {
      hop_scales = ParseDoubles(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--cache-kb=", 11) == 0) {
      cache_kb = ParseInts(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--loss-rates=", 13) == 0) {
      loss_rates = ParseDoubles(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--epoch-counts=", 15) == 0) {
      epoch_counts = ParseInts(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = std::atoi(argv[i] + 11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  if (flags.bench_json == "BENCH_experiment.json") {
    flags.bench_json = "BENCH_cache.json";
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

  bcast::FleetOptions base;
  base.packet_capacity = capacity;
  base.num_clients = clients;
  base.sim_cycles = cycles;
  base.queries_per_cycle = rate;
  base.churn = churn;
  base.seed = flags.seed;

  // A cell's epoch timeline: K stretches of the SAME index/subdivision
  // under distinct epoch ids, evenly splitting the horizon (the last
  // epoch broadcasts forever).
  const auto make_epochs = [&](int k) {
    std::vector<bcast::FleetEpoch> epochs;
    const int64_t span_cycles =
        std::max<int64_t>(1, static_cast<int64_t>(cycles) /
                                 std::max(k, 1));
    for (int e = 0; e < k; ++e) {
      epochs.push_back({index.value().get(), &ds.value().subdivision,
                        static_cast<uint16_t>(e), span_cycles});
    }
    return epochs;
  };

  bool ok = true;
  BenchRecorder recorder("bench_cache", flags);

  std::printf("== Region-cache bench (E18) ==\n");
  std::printf(
      "dataset %s, cap %d, %lld clients, %.3g cycles, rate %.3g/cycle, "
      "churn %.3g\n",
      ds.value().name.c_str(), capacity, static_cast<long long>(clients),
      cycles, rate, churn);
  std::printf("%-34s %9s %9s %9s %9s %10s %9s\n", "cell", "queries",
              "hit_rate", "tun_off", "tun_on", "saved", "wall_s");

  double smallest_gauss_hit_rate = -1.0;
  double smallest_gauss_saved = 0.0;
  const double smallest_hop =
      *std::min_element(hop_scales.begin(), hop_scales.end());

  for (const auto model : {workload::MobilityModel::kGaussianHop,
                           workload::MobilityModel::kRandomWaypoint}) {
    for (double hop : hop_scales) {
      for (int kb : cache_kb) {
        for (double loss : loss_rates) {
          for (int k : epoch_counts) {
            bcast::FleetOptions on = base;
            on.mobility.enabled = true;
            on.mobility.model = model;
            on.mobility.hop_scale = hop;
            on.mobility.waypoint_step = hop;
            on.cache.enabled = true;
            on.cache.verify_hits = true;
            on.cache.byte_budget = static_cast<size_t>(kb) * 1024;
            if (loss > 0.0) {
              on.loss.model = bcast::LossModel::kIid;
              on.loss.loss_rate = loss;
              on.loss.seed = flags.seed + 1;
            }
            bcast::FleetOptions off = on;
            off.cache = bcast::CacheOptions{};  // disabled twin

            const auto epochs = make_epochs(k);
            const auto t0 = std::chrono::steady_clock::now();
            auto r_on = bcast::RunFleetVersioned(epochs, on);
            auto r_off = bcast::RunFleetVersioned(epochs, off);
            const double wall_s = SecondsSince(t0);
            if (!r_on.ok() || !r_off.ok()) {
              std::fprintf(stderr, "FAIL: cell run failed: %s\n",
                           (!r_on.ok() ? r_on.status() : r_off.status())
                               .ToString()
                               .c_str());
              return 1;
            }
            const FleetResult& von = r_on.value();
            const FleetResult& voff = r_off.value();
            // Note the twins need not complete the same query count: a
            // hit finishes at its arrival, unclamping the client's next
            // arrival, so warm clients fit MORE queries into the same
            // horizon. The comparison below is per-query means.
            const double hit_rate =
                von.queries > 0
                    ? static_cast<double>(von.cache_hits) /
                          static_cast<double>(von.queries)
                    : 0.0;
            const double saved =
                voff.mean_tuning_total - von.mean_tuning_total;
            char cell[128];
            std::snprintf(cell, sizeof(cell),
                          "%s/h%g/kb%d/l%g/e%d",
                          workload::MobilityModelName(model), hop, kb,
                          loss, k);
            char extra[256];
            std::snprintf(
                extra, sizeof(extra),
                ", \"hit_rate\": %.4f, \"cache_hits\": %lld, "
                "\"cache_misses\": %lld, \"cache_evictions\": %lld, "
                "\"cache_invalidations\": %lld, "
                "\"tuning_off\": %.3f, \"tuning_saved\": %.3f",
                hit_rate, static_cast<long long>(von.cache_hits),
                static_cast<long long>(von.cache_misses),
                static_cast<long long>(von.cache_evictions),
                static_cast<long long>(von.cache_invalidations),
                voff.mean_tuning_total, saved);
            recorder.Record(cell, wall_s,
                            static_cast<double>(von.queries) /
                                std::max(wall_s, 1e-12),
                            flags.threads, CellPercentiles::From(von),
                            extra);
            std::printf("%-34s %9lld %9.3f %9.3f %9.3f %10.3f %9.2f\n",
                        cell, static_cast<long long>(von.queries),
                        hit_rate, voff.mean_tuning_total,
                        von.mean_tuning_total, saved, wall_s);
            if (model == workload::MobilityModel::kGaussianHop &&
                hop == smallest_hop && loss == 0.0 && k == 1 &&
                hit_rate > smallest_gauss_hit_rate) {
              smallest_gauss_hit_rate = hit_rate;
              smallest_gauss_saved = saved;
            }
          }
        }
      }
    }
  }

  // --- Efficacy gate: spatial locality must pay. The smallest Gaussian
  // hop is the paper's "slow pedestrian" — if the cache cannot clear 50%
  // hits there, it is broken (or the sweep was asked for hop scales that
  // make no sense).
  if (smallest_gauss_hit_rate >= 0.0) {
    if (smallest_gauss_hit_rate <= 0.5 || smallest_gauss_saved <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: smallest Gaussian hop (%.3g) hit rate %.3f "
                   "(need > 0.5) saved %.3f (need > 0)\n",
                   smallest_hop, smallest_gauss_hit_rate,
                   smallest_gauss_saved);
      ok = false;
    } else {
      std::printf("efficacy: hop %.3g hit rate %.3f, tuning saved %.3f ✓\n",
                  smallest_hop, smallest_gauss_hit_rate,
                  smallest_gauss_saved);
    }
  }

  // --- Thread sweep on one representative cell (smallest hop, largest
  // cache, lossy, multi-epoch when asked): every FleetResult field must
  // be bit-identical at 1/4/8 threads, and so must the telemetry exports
  // when attached.
  {
    bcast::FleetOptions run = base;
    run.mobility.enabled = true;
    run.mobility.model = workload::MobilityModel::kGaussianHop;
    run.mobility.hop_scale = smallest_hop;
    run.mobility.waypoint_step = smallest_hop;
    run.cache.enabled = true;
    run.cache.verify_hits = true;
    run.cache.byte_budget =
        static_cast<size_t>(
            *std::max_element(cache_kb.begin(), cache_kb.end())) *
        1024;
    const double sweep_loss = loss_rates.back();
    if (sweep_loss > 0.0) {
      run.loss.model = bcast::LossModel::kIid;
      run.loss.loss_rate = sweep_loss;
      run.loss.seed = flags.seed + 1;
    }
    const auto epochs = make_epochs(epoch_counts.back());

    const bool telemetry_on = !flags.telemetry_out.empty() ||
                              !flags.flight_out.empty() ||
                              !flags.prom_out.empty();
    bcast::FleetTelemetry telemetry;
    const std::string tlabel = ds.value().name + "/cache/c" +
                               std::to_string(clients);
    std::string ref_timeline, ref_flight, ref_prom;
    bool have_telemetry_reference = false;
    FleetResult reference;
    bool have_reference = false;
    for (int threads : {1, 4, 8}) {
      bcast::FleetOptions sweep = run;
      sweep.num_threads = threads;
      const std::string cell = tlabel + "/t" + std::to_string(threads);
      bcast::JsonlTraceSink* trace = GlobalTraceSink(flags);
      if (trace != nullptr) {
        trace->set_label(cell);
        sweep.trace_sink = trace;
      }
      if (telemetry_on) sweep.telemetry = &telemetry;
      const auto t0 = std::chrono::steady_clock::now();
      auto res = bcast::RunFleetVersioned(epochs, sweep);
      const double wall_s = SecondsSince(t0);
      if (!res.ok()) {
        std::fprintf(stderr, "FAIL: thread-sweep run failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      const FleetResult& r = res.value();
      char extra[192];
      std::snprintf(
          extra, sizeof(extra),
          ", \"hit_rate\": %.4f, \"cache_hits\": %lld, "
          "\"cache_misses\": %lld, \"cache_evictions\": %lld, "
          "\"cache_invalidations\": %lld",
          r.queries > 0 ? static_cast<double>(r.cache_hits) /
                              static_cast<double>(r.queries)
                        : 0.0,
          static_cast<long long>(r.cache_hits),
          static_cast<long long>(r.cache_misses),
          static_cast<long long>(r.cache_evictions),
          static_cast<long long>(r.cache_invalidations));
      recorder.Record(tlabel + "/t" + std::to_string(threads), wall_s,
                      static_cast<double>(r.queries) /
                          std::max(wall_s, 1e-12),
                      threads, CellPercentiles::From(r), extra);
      if (!have_reference) {
        reference = r;
        have_reference = true;
      } else if (r != reference) {
        std::fprintf(stderr,
                     "FAIL: FleetResult at %d threads diverges from the "
                     "1-thread run (hits %lld vs %lld)\n",
                     threads, static_cast<long long>(r.cache_hits),
                     static_cast<long long>(reference.cache_hits));
        ok = false;
      }
      if (telemetry_on) {
        const bcast::TelemetryTotals totals = bcast::TotalsFromFleet(r);
        const std::string timeline =
            telemetry.TimelineJsonl(tlabel, &totals);
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
                       "FAIL: telemetry output at %d threads diverges\n",
                       threads);
          ok = false;
        }
      }
    }
    if (have_reference) {
      std::printf("thread sweep: %lld queries, %lld hits, "
                  "%lld invalidations — bit-identical at 1/4/8 ✓\n",
                  static_cast<long long>(reference.queries),
                  static_cast<long long>(reference.cache_hits),
                  static_cast<long long>(reference.cache_invalidations));
    }
    if (have_telemetry_reference && ok) {
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
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: region-cache invariants violated\n");
    return 1;
  }
  return 0;
}
