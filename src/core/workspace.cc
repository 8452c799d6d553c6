#include "core/workspace.h"

#include "core/engine_internal.h"

namespace conn {
namespace core {

QueryWorkspace::QueryWorkspace(const rtree::RStarTree* data_tree,
                               const rtree::RStarTree* obstacle_tree,
                               const geom::Rect& query_cover)
    : domain_(
          internal::WorkspaceBounds(data_tree, obstacle_tree, query_cover)),
      vg_(domain_, /*stats=*/nullptr) {}

}  // namespace core
}  // namespace conn
