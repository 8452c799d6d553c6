// Fleet workloads for the moving-query subscription service: per-client
// routes (polyline + speed) instead of the static segments of workload.h.
//
// Two spatial patterns mirror the point distributions of Section 5.1:
// uniform traffic spread over the whole workspace, and clustered traffic
// where routes fan out from a few depots — the regime where the tick
// loop's shared workspaces pay off.

#ifndef CONN_DATAGEN_FLEET_H_
#define CONN_DATAGEN_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/vec.h"

namespace conn {
namespace datagen {

/// One client's route: a polyline walked at constant speed (the exec
/// layer's RouteSpec shape, kept here without the exec dependency).
struct FleetRoute {
  std::vector<geom::Vec2> waypoints;
  double speed = 1.0;
};

/// Spatial pattern of the fleet.
enum class FleetPattern {
  kUniform,    ///< route starts uniform over the workspace
  kClustered,  ///< route starts packed around a few depots
};

/// Knobs for fleet generation.
struct FleetOptions {
  FleetPattern pattern = FleetPattern::kClustered;

  /// Clustered only: number of depots and the spread of route starts
  /// around each (workspace units).
  size_t depots = 4;
  double depot_radius = 400.0;

  /// Waypoints per route (>= 1; 1 yields a stationary client).
  size_t waypoints_per_route = 4;

  /// Mean leg length; actual legs are uniform in [0.5, 1.5] x this.
  double leg_length = 400.0;

  /// Base arc length advanced per tick.  With \p dyadic_speeds set (the
  /// default) per-route speeds are this value scaled by a power of two
  /// ({1/2, 1, 2}), keeping every tick boundary's absolute arc value
  /// exactly representable — so re-ticking a route at half step size
  /// visits bit-identical positions (the half-step metamorphic test).
  double speed = 64.0;
  bool dyadic_speeds = true;
};

/// Generates \p n routes inside \p domain, deterministically from \p seed.
std::vector<FleetRoute> MakeFleetRoutes(size_t n, const geom::Rect& domain,
                                        const FleetOptions& opts,
                                        uint64_t seed);

}  // namespace datagen
}  // namespace conn

#endif  // CONN_DATAGEN_FLEET_H_
