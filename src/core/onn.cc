#include "core/onn.h"

#include "common/check.h"
#include "core/engine_internal.h"

namespace conn {
namespace core {

OnnResult OnnQuery(const rtree::RStarTree& data_tree,
                   const rtree::RStarTree& obstacle_tree,
                   geom::Vec2 query_point, size_t k, const ConnOptions& opts) {
  CONN_CHECK_MSG(k >= 1, "ONN requires k >= 1");
  internal::QueryScope scope(data_tree, obstacle_tree,
                             geom::Segment(query_point, query_point),
                             /*workspace=*/nullptr);
  OnnResult result;
  result.query = query_point;
  result.neighbors = internal::NearestByOdist(&scope, k, opts);
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
