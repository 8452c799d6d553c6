#include "core/workspace.h"

#include "core/engine_internal.h"

namespace conn {
namespace core {

QueryWorkspace::QueryWorkspace(const rtree::RStarTree* data_tree,
                               const rtree::RStarTree* obstacle_tree,
                               const geom::Rect& query_cover)
    : domain_(
          internal::WorkspaceBounds(data_tree, obstacle_tree, query_cover)),
      vg_(domain_, /*stats=*/nullptr) {
  // Repair-mode workspaces use the same eager adjacency as every other
  // graph.  A deferred (patch-only) vis::VisGraph mode was built for them,
  // measured at ~15% fewer warm qps on bench_ticks at smoke scale, and
  // deleted: the repair win comes from the settlement log and the reshard
  // adoption path, both orthogonal to adjacency maintenance.
}

}  // namespace core
}  // namespace conn
