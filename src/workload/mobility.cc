#include "workload/mobility.h"

#include <cmath>

#include "common/check.h"

namespace dtree::workload {

const char* MobilityModelName(MobilityModel model) {
  switch (model) {
    case MobilityModel::kGaussianHop:
      return "gaussian_hop";
    case MobilityModel::kRandomWaypoint:
      return "random_waypoint";
  }
  return "?";
}

namespace {

/// Folds v into [lo, hi] by mirroring at the walls (billiard reflection),
/// so a hop that overshoots the service area bounces back in instead of
/// clamping to the wall (clamping would pile probability mass onto the
/// boundary, exactly where the cache's boundary guard refuses to answer).
double Reflect(double v, double lo, double hi) {
  const double w = hi - lo;
  if (w <= 0.0) return lo;
  double t = std::fmod(v - lo, 2.0 * w);
  if (t < 0.0) t += 2.0 * w;
  return t <= w ? lo + t : lo + (2.0 * w - t);
}

template <class Engine>
geom::Point UniformIn(const geom::BBox& area, BasicRng<Engine>* rng) {
  const double x = rng->Uniform(area.min_x, area.max_x);
  const double y = rng->Uniform(area.min_y, area.max_y);
  return {x, y};
}

}  // namespace

template <class Engine>
geom::Point MobilityStep(const MobilityOptions& options,
                         const geom::BBox& area, MobilityState* state,
                         BasicRng<Engine>* rng) {
  DTREE_CHECK(state != nullptr && rng != nullptr);
  if (!state->started) {
    state->pos = UniformIn(area, rng);
    state->started = true;
    state->has_waypoint = false;
    return state->pos;
  }
  switch (options.model) {
    case MobilityModel::kGaussianHop: {
      const double dx = rng->Gaussian(0.0, options.hop_scale);
      const double dy = rng->Gaussian(0.0, options.hop_scale);
      state->pos = {Reflect(state->pos.x + dx, area.min_x, area.max_x),
                    Reflect(state->pos.y + dy, area.min_y, area.max_y)};
      return state->pos;
    }
    case MobilityModel::kRandomWaypoint: {
      if (!state->has_waypoint) {
        state->waypoint = UniformIn(area, rng);
        state->has_waypoint = true;
      }
      const double d = geom::Distance(state->pos, state->waypoint);
      if (d <= options.waypoint_step) {
        // Arrive this step; the next step draws a fresh waypoint.
        state->pos = state->waypoint;
        state->has_waypoint = false;
      } else {
        const double t = options.waypoint_step / d;
        state->pos = state->pos + (state->waypoint - state->pos) * t;
      }
      return state->pos;
    }
  }
  DTREE_CHECK(false);
  return state->pos;
}

template geom::Point MobilityStep(const MobilityOptions&, const geom::BBox&,
                                  MobilityState*, Rng*);
template geom::Point MobilityStep(const MobilityOptions&, const geom::BBox&,
                                  MobilityState*, StreamRng*);

Status ValidateMobilityOptions(const MobilityOptions& options) {
  if (!options.enabled) return Status::OK();
  switch (options.model) {
    case MobilityModel::kGaussianHop:
      if (!(options.hop_scale > 0.0)) {
        return Status::InvalidArgument("mobility hop_scale must be > 0");
      }
      break;
    case MobilityModel::kRandomWaypoint:
      if (!(options.waypoint_step > 0.0)) {
        return Status::InvalidArgument("mobility waypoint_step must be > 0");
      }
      break;
  }
  return Status::OK();
}

}  // namespace dtree::workload
