// Moving-client workloads: spatially correlated query-point sequences.
//
// The i.i.d. samplers in broadcast/experiment.h model a fleet of unrelated
// one-shot queries. A real mobile client issues *sequences* of queries
// from nearby positions — which is exactly the locality the client-side
// region cache (broadcast/region_cache.h) exploits: if the next query
// point is still inside the Voronoi cell of the previous answer, the
// client need not tune into the broadcast at all.
//
// Two classic mobility models:
//
//  * kGaussianHop      — each query hops from the previous position by an
//                        isotropic Gaussian step of standard deviation
//                        `hop_scale` per axis; positions reflect off the
//                        service-area walls so the walk never escapes.
//  * kRandomWaypoint   — the client picks a uniform waypoint in the area
//                        and moves toward it in straight-line steps of
//                        `waypoint_step` per query, drawing a fresh
//                        waypoint on arrival.
//
// Determinism contract (RNG stream hygiene): a walk draws ONLY from the
// generator handed to each MobilityStep call (an Rng in RunExperiment, a
// StreamRng in the fleet). Callers derive it from the dedicated
// kMobilityStreamBase family — never from the point / schedule / loss
// streams existing workloads consume — so enabling mobility cannot
// perturb a single existing draw, and the walk itself depends only on
// (seed, stream ids), never on thread count.

#ifndef DTREE_WORKLOAD_MOBILITY_H_
#define DTREE_WORKLOAD_MOBILITY_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "geom/point.h"

namespace dtree::workload {

enum class MobilityModel {
  kGaussianHop,
  kRandomWaypoint,
};

const char* MobilityModelName(MobilityModel model);

struct MobilityOptions {
  /// Off by default: samplers draw i.i.d. points, bit-identical to today.
  bool enabled = false;
  MobilityModel model = MobilityModel::kGaussianHop;
  /// kGaussianHop: per-axis standard deviation of one hop, in service-area
  /// units. Must be > 0 when the model is kGaussianHop.
  double hop_scale = 10.0;
  /// kRandomWaypoint: straight-line distance traveled per query toward the
  /// current waypoint. Must be > 0 when the model is kRandomWaypoint.
  double waypoint_step = 25.0;
};

/// Base of the RNG sub-stream family reserved for mobility walks, far
/// above every other stream id under the same key (the stream table in
/// common/rng.h).
inline constexpr uint64_t kMobilityStreamBase = uint64_t{1} << 40;

/// One client's walk state. Plain value type so the fleet engine can embed
/// it per client and reset it on churn (a fresh generation is a fresh
/// client with an unrelated walk).
struct MobilityState {
  geom::Point pos{0.0, 0.0};
  /// kRandomWaypoint: current target, valid only when has_waypoint.
  geom::Point waypoint{0.0, 0.0};
  bool started = false;
  bool has_waypoint = false;
};

/// Advances `state` by one query step inside `area` and returns the new
/// position (always within the area). The first call of a walk draws the
/// start position uniformly in the area. All randomness comes from `rng`;
/// instantiated for Rng and StreamRng (common/rng.h).
template <class Engine>
geom::Point MobilityStep(const MobilityOptions& options,
                         const geom::BBox& area, MobilityState* state,
                         BasicRng<Engine>* rng);

/// Validates model parameters (positive scales, non-degenerate area).
Status ValidateMobilityOptions(const MobilityOptions& options);

}  // namespace dtree::workload

#endif  // DTREE_WORKLOAD_MOBILITY_H_
