#include "core/obstructed_range.h"

#include <algorithm>

#include "common/check.h"
#include "core/engine_internal.h"

namespace conn {
namespace core {

ObstructedRangeResult ObstructedRangeQuery(
    const rtree::RStarTree& data_tree, const rtree::RStarTree& obstacle_tree,
    geom::Vec2 query_point, double radius, const ConnOptions& /*opts*/) {
  CONN_CHECK_MSG(radius >= 0.0, "range radius must be non-negative");
  internal::QueryScope scope(data_tree, obstacle_tree,
                             geom::Segment(query_point, query_point),
                             /*workspace=*/nullptr);
  ObstructedRangeResult result;
  result.query = query_point;
  result.radius = radius;
  // Euclidean mindist lower-bounds the obstructed distance, so the stream
  // can stop permanently once it passes the radius.
  internal::ForEachPointByOdist(
      &scope, [&](double mindist) { return mindist <= radius; },
      [&](const OnnNeighbor& n) {
        if (n.odist <= radius) result.members.push_back(n);
      });
  std::sort(result.members.begin(), result.members.end(),
            internal::NearerFirst);
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
