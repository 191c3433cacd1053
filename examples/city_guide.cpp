// city_guide: an end-to-end mobile-client session on the broadcast
// channel — the scenario the paper's introduction motivates (a tourist
// asking "which region am I in, and when is its info broadcast?").
//
// A server broadcasts nearest-restaurant data for a city with a (1, m)
// interleaved D-tree air index; a client wakes at a random moment,
// follows the access protocol (initial probe -> index search -> doze ->
// data retrieval) and reports its latency and tuning time.
//
//   $ ./city_guide [seed]

#include <cstdio>
#include <cstdlib>

#include "broadcast/channel.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "subdivision/voronoi.h"
#include "workload/datasets.h"

int main(int argc, char** argv) {
  using namespace dtree;
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  Rng rng(seed);

  // 64 restaurants scattered over the city; each data instance is the
  // 1 KB "nearest restaurant" answer valid inside its Voronoi scope.
  const geom::BBox city = workload::DefaultServiceArea();
  auto restaurants = workload::ClusteredPoints(64, city, 6, 0.05, &rng);
  auto scopes_r = sub::BuildVoronoiSubdivision(restaurants, city);
  if (!scopes_r.ok()) {
    std::fprintf(stderr, "%s\n", scopes_r.status().ToString().c_str());
    return 1;
  }
  const sub::Subdivision& scopes = scopes_r.value();

  core::DTree::Options iopt;
  iopt.packet_capacity = 128;
  auto index_r = core::DTree::Build(scopes, iopt);
  if (!index_r.ok()) {
    std::fprintf(stderr, "%s\n", index_r.status().ToString().c_str());
    return 1;
  }
  const core::DTree& index = index_r.value();

  bcast::ChannelOptions copt;
  copt.packet_capacity = 128;
  auto channel_r = bcast::BroadcastChannel::Create(
      index.NumIndexPackets(), scopes.NumRegions(), copt);
  if (!channel_r.ok()) {
    std::fprintf(stderr, "%s\n", channel_r.status().ToString().c_str());
    return 1;
  }
  const bcast::BroadcastChannel& ch = channel_r.value();

  std::printf("Broadcast program: %d regions x 1KB data, %d index packets, "
              "(1,%d) interleaving, cycle %lld packets\n\n",
              scopes.NumRegions(), index.NumIndexPackets(), ch.m(),
              static_cast<long long>(ch.cycle_packets()));

  for (int session = 0; session < 5; ++session) {
    const geom::Point here{rng.Uniform(city.min_x, city.max_x),
                           rng.Uniform(city.min_y, city.max_y)};
    const double arrival =
        rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
    auto trace_r = index.Probe(here);
    if (!trace_r.ok()) {
      std::fprintf(stderr, "%s\n", trace_r.status().ToString().c_str());
      return 1;
    }
    auto outcome_r = ch.Simulate(trace_r.value(), arrival);
    if (!outcome_r.ok()) {
      std::fprintf(stderr, "%s\n", outcome_r.status().ToString().c_str());
      return 1;
    }
    const auto& oc = outcome_r.value();
    auto baseline_r = ch.SimulateNoIndex(trace_r.value().region, arrival);
    if (!baseline_r.ok()) {
      std::fprintf(stderr, "%s\n", baseline_r.status().ToString().c_str());
      return 1;
    }
    const auto& baseline = baseline_r.value();
    std::printf("client %d at (%5.1f,%5.1f), tuned in at t=%.1f\n",
                session + 1, here.x, here.y, arrival);
    std::printf("  nearest restaurant region: %d\n", trace_r.value().region);
    std::printf("  latency  %7.1f packets   (no-index baseline %7.1f)\n",
                oc.latency, baseline.latency);
    std::printf("  tuning   %7d packets   (probe %d + index %d + data %d; "
                "no-index %d)\n",
                oc.tuning_total(), oc.tuning_probe, oc.tuning_index,
                oc.tuning_data, baseline.tuning_total());
    std::printf("  dozed through %.0f%% of the wait\n\n",
                100.0 * (1.0 - oc.tuning_total() / oc.latency));
  }
  return 0;
}
