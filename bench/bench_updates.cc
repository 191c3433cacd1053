// Versioned-broadcast bench: live dataset updates under fleet load.
//
// Sweeps update rate (number of broadcast epochs over a fixed horizon) x
// index type x packet loss, running every cell through RunFleetVersioned
// at 1, 4 and 8 worker threads. Site evolution is driven by the real
// server path — a VersionedProgram with randomized insert/delete batches
// committed at cycle boundaries — and the bench verifies, with a nonzero
// exit on violation:
//
//   1. Commit oracle: every epoch CommitEpoch publishes is bit-identical
//      (site list and every broadcast frame) to VersionedProgram::BuildEpoch
//      run cold on the same evolved site set.
//   2. Determinism: FleetResult — every field, the version-skew
//      accounting and histograms included — is bit-identical at 1, 4,
//      and 8 worker threads for every cell.
//   3. Liveness of the rung: multi-epoch cells actually observe epoch
//      switches (a sweep that never exercises the ladder measures nothing).
//
// Extra flags (on top of the shared ones):
//   --clients=N     concurrent clients (default 10000)
//   --updates=U     site updates per committed epoch (default 4; even
//                   values alternate insert/delete so the site count holds)
//   --capacity=N    packet capacity (default 256)
// The shared --threads flag is ignored: the bench always sweeps 1/4/8.
//
// With --trace-out set, every cell's queries are appended to the shared
// JSONL sink (lines carry the versioned "epoch"/"epoch_switches" fields
// and "epoch_switch" events; tools/trace_summary.py --check validates
// them). With --telemetry-out / --flight-out set, a FleetTelemetry sink
// rides along and the bench additionally verifies that the timeline and
// flight-recorder bytes are identical at 1/4/8 threads for every cell.

#include "bench_util.h"

#include <cinttypes>
#include <cmath>

#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "dtree/versioned.h"
#include "subdivision/voronoi.h"

namespace {

using dtree::Rng;
using dtree::bcast::FleetResult;
using dtree::core::EpochState;
using dtree::core::SiteUpdate;
using dtree::core::VersionedProgram;
using dtree::geom::Point;

/// Insert candidate well clear of every live site so a commit never trips
/// the Voronoi separation floor (rejection is essentially free at these
/// densities, but a collision would abort a whole cell).
Point DrawInsertPoint(const std::vector<Point>& sites,
                      const dtree::geom::BBox& area, Rng* rng) {
  const double margin = 8.0 * dtree::sub::kMinSiteSeparation;
  for (;;) {
    const Point p{rng->Uniform(area.min_x + 1.0, area.max_x - 1.0),
                  rng->Uniform(area.min_y + 1.0, area.max_y - 1.0)};
    bool clear = true;
    for (const Point& s : sites) {
      const double dx = s.x - p.x, dy = s.y - p.y;
      if (dx * dx + dy * dy < margin * margin) {
        clear = false;
        break;
      }
    }
    if (clear) return p;
  }
}

/// One epoch timeline: E states published by a VersionedProgram, each
/// commit checked bit-for-bit against the cold-rebuild oracle.
struct EpochTimeline {
  std::vector<std::shared_ptr<const EpochState>> states;
};

bool SameSites(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  }
  return true;
}

bool SameProgramBytes(const dtree::core::BroadcastProgram& a,
                      const dtree::core::BroadcastProgram& b) {
  if (a.num_frames() != b.num_frames()) return false;
  for (int64_t i = 0; i < a.num_frames(); ++i) {
    const auto fa = a.frame(i);
    const auto fb = b.frame(i);
    if (fa.size() != fb.size() ||
        !std::equal(fa.begin(), fa.end(), fb.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtree::bench;
  namespace bcast = dtree::bcast;
  int64_t clients = 10000;
  int updates_per_epoch = 4;
  int capacity = 256;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::strtoll(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--updates=", 10) == 0) {
      updates_per_epoch = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = std::atoi(argv[i] + 11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  if (flags.bench_json == "BENCH_experiment.json") {
    flags.bench_json = "BENCH_updates.json";
  }

  const dtree::geom::BBox area = dtree::workload::DefaultServiceArea();
  VersionedProgram::Options popt;
  popt.service_area = area;
  popt.channel.packet_capacity = capacity;
  popt.tree.packet_capacity = capacity;

  Rng base_rng(flags.seed);
  const std::vector<Point> base_sites =
      dtree::workload::UniformPoints(40, area, &base_rng);

  bool ok = true;

  // --- Site evolution per update rate, through the real server path.
  // Every commit is held to the cold-rebuild oracle before any fleet runs.
  const int kEpochCounts[] = {2, 4, 8};
  std::vector<EpochTimeline> timelines;
  for (int num_epochs : kEpochCounts) {
    auto program = VersionedProgram::Create(base_sites, popt);
    if (!program.ok()) {
      std::fprintf(stderr, "epoch 0 build failed: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    EpochTimeline tl;
    tl.states.push_back(program.value()->Acquire());
    std::vector<Point> sites = base_sites;
    Rng update_rng(Rng::MixStream(flags.seed, static_cast<uint64_t>(num_epochs)));
    for (int e = 1; e < num_epochs; ++e) {
      std::vector<SiteUpdate> batch;
      for (int u = 0; u < updates_per_epoch; ++u) {
        if (u % 2 == 0) {
          batch.push_back(
              SiteUpdate::Insert(DrawInsertPoint(sites, area, &update_rng)));
        } else {
          batch.push_back(SiteUpdate::Delete(
              Point{update_rng.Uniform(area.min_x, area.max_x),
                    update_rng.Uniform(area.min_y, area.max_y)}));
        }
        // Keep `sites` mirroring the queue so later insert candidates are
        // drawn against the set the commit will actually see.
        auto applied = VersionedProgram::ApplyUpdates(sites, {batch.back()});
        DTREE_CHECK(applied.ok());
        sites = std::move(applied).value();
      }
      for (const SiteUpdate& up : batch) program.value()->Enqueue(up);
      auto committed = program.value()->CommitEpoch();
      if (!committed.ok()) {
        std::fprintf(stderr, "commit %d/%d failed: %s\n", e, num_epochs,
                     committed.status().ToString().c_str());
        return 1;
      }
      auto cold = VersionedProgram::BuildEpoch(sites, popt,
                                              static_cast<uint16_t>(e));
      if (!cold.ok()) {
        std::fprintf(stderr, "cold oracle build failed: %s\n",
                     cold.status().ToString().c_str());
        return 1;
      }
      if (committed.value()->epoch != e ||
          !SameSites(committed.value()->sites, cold.value()->sites) ||
          !SameProgramBytes(committed.value()->program,
                            cold.value()->program)) {
        std::fprintf(stderr,
                     "FAIL: epoch %d commit diverges from the cold-rebuild "
                     "oracle (E=%d)\n",
                     e, num_epochs);
        ok = false;
      }
      tl.states.push_back(std::move(committed).value());
    }
    timelines.push_back(std::move(tl));
  }
  if (ok) {
    std::printf("commit oracle: every epoch == cold rebuild, "
                "bit-for-bit ✓\n");
  }

  // --- The sweep: update rate x index type x loss, 1/4/8 threads each.
  std::printf("== Versioned fleet bench ==\n");
  std::printf("UNIFORM(40 sites), cap %d, %lld clients, %d updates/epoch\n",
              capacity, static_cast<long long>(clients), updates_per_epoch);
  std::printf("%-34s %10s %10s %9s %9s %8s %8s\n", "cell", "queries",
              "latency", "switches", "churned", "unrec", "wall_s");

  BenchRecorder recorder("bench_updates", flags);
  const bool telemetry_on =
      !flags.telemetry_out.empty() || !flags.flight_out.empty();
  bcast::FleetTelemetry telemetry;
  std::string all_timeline, all_flight;
  const double kLossRates[] = {0.0, 0.1};
  for (size_t ti = 0; ti < timelines.size(); ++ti) {
    const int num_epochs = kEpochCounts[ti];
    const EpochTimeline& tl = timelines[ti];
    for (IndexKind kind : kAllKinds) {
      // Per-epoch indexes for this kind. The D-tree rides the server's own
      // tree; baselines are built over the same published subdivisions.
      std::vector<std::unique_ptr<bcast::AirIndex>> built;
      std::vector<bcast::FleetEpoch> epochs;
      bool kind_ok = true;
      for (size_t e = 0; e < tl.states.size(); ++e) {
        const EpochState& st = *tl.states[e];
        const bcast::AirIndex* index = &st.tree;
        if (kind != IndexKind::kDTree) {
          auto b = BuildIndex(kind, st.subdivision, capacity);
          if (!b.ok()) {
            std::fprintf(stderr, "%s epoch %zu build failed: %s\n",
                         KindName(kind), e, b.status().ToString().c_str());
            kind_ok = false;
            break;
          }
          built.push_back(std::move(b).value());
          index = built.back().get();
        }
        epochs.push_back(bcast::FleetEpoch{index, &st.subdivision, st.epoch,
                                           /*cycles=*/1});
      }
      if (!kind_ok) {
        ok = false;
        continue;
      }
      for (double loss_rate : kLossRates) {
        bcast::FleetOptions fopt;
        fopt.packet_capacity = capacity;
        fopt.num_clients = clients;
        fopt.sim_cycles = static_cast<double>(num_epochs) + 1.0;
        fopt.queries_per_cycle = 1.0;
        fopt.churn = 0.05;
        fopt.seed = flags.seed;
        if (loss_rate > 0.0) {
          fopt.loss.model = bcast::LossModel::kIid;
          fopt.loss.loss_rate = loss_rate;
          fopt.loss.seed = flags.seed + 1;
        }
        char cell[128];
        std::snprintf(cell, sizeof(cell), "UNIFORM/%s/e%d/loss%.2g",
                      KindName(kind), num_epochs, loss_rate);
        FleetResult reference;
        bool have_reference = false;
        std::string ref_timeline, ref_flight;
        for (int threads : {1, 4, 8}) {
          bcast::FleetOptions run = fopt;
          run.num_threads = threads;
          bcast::JsonlTraceSink* trace = GlobalTraceSink(flags);
          if (trace != nullptr) {
            trace->set_label(std::string(cell) + "/t" +
                             std::to_string(threads));
            run.trace_sink = trace;
          }
          if (telemetry_on) run.telemetry = &telemetry;
          const auto t0 = std::chrono::steady_clock::now();
          auto res = bcast::RunFleetVersioned(epochs, run);
          const double wall_s = SecondsSince(t0);
          if (!res.ok()) {
            std::fprintf(stderr, "%s at %d threads failed: %s\n", cell,
                         threads, res.status().ToString().c_str());
            return 1;
          }
          const FleetResult& r = res.value();
          recorder.Record(std::string(cell) + "/t" + std::to_string(threads),
                          wall_s,
                          static_cast<double>(r.queries) /
                              std::max(wall_s, 1e-12),
                          threads, CellPercentiles::From(r));
          if (!have_reference) {
            reference = r;
            have_reference = true;
            std::printf("%-34s %10lld %10.2f %9lld %9lld %8lld %8.2f\n",
                        cell, static_cast<long long>(r.queries),
                        r.mean_latency,
                        static_cast<long long>(r.total_epoch_switches),
                        static_cast<long long>(r.epoch_churn_queries),
                        static_cast<long long>(r.unrecoverable_queries),
                        wall_s);
          } else if (r != reference) {
            std::fprintf(stderr,
                         "FAIL: %s diverges at %d threads (queries %lld vs "
                         "%lld, latency %.17g vs %.17g, switches %lld vs "
                         "%lld)\n",
                         cell, threads,
                         static_cast<long long>(r.queries),
                         static_cast<long long>(reference.queries),
                         r.mean_latency, reference.mean_latency,
                         static_cast<long long>(r.total_epoch_switches),
                         static_cast<long long>(reference.total_epoch_switches));
            ok = false;
          }
          if (telemetry_on) {
            const bcast::TelemetryTotals totals = bcast::TotalsFromFleet(r);
            const std::string timeline =
                telemetry.TimelineJsonl(cell, &totals);
            const std::string& flight = telemetry.flight_records();
            if (threads == 1) {
              ref_timeline = timeline;
              ref_flight = flight;
            } else if (timeline != ref_timeline || flight != ref_flight) {
              std::fprintf(stderr,
                           "FAIL: %s telemetry diverges at %d threads "
                           "(timeline %s, flight %s)\n",
                           cell, threads,
                           timeline == ref_timeline ? "same" : "DIFFERS",
                           flight == ref_flight ? "same" : "DIFFERS");
              ok = false;
            }
          }
        }
        if (telemetry_on) {
          all_timeline += ref_timeline;
          all_flight += ref_flight;
        }
        if (num_epochs > 1 && reference.total_epoch_switches == 0) {
          std::fprintf(stderr,
                       "FAIL: %s never observed an epoch switch — the "
                       "version-skew rung was not exercised\n",
                       cell);
          ok = false;
        }
      }
    }
  }

  if (telemetry_on && ok) {
    std::printf("telemetry: timeline+flight byte-identical at 1/4/8 "
                "threads for every cell ✓\n");
    if (!flags.telemetry_out.empty() &&
        !WriteTextFile(flags.telemetry_out, all_timeline)) {
      ok = false;
    }
    if (!flags.flight_out.empty() &&
        !WriteTextFile(flags.flight_out, all_flight)) {
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: versioned-broadcast invariants violated\n");
    return 1;
  }
  std::printf("determinism: FleetResult bit-identical at 1/4/8 threads "
              "for every cell ✓\n");
  return 0;
}
