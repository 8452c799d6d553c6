// Obstructed k-nearest-neighbor point queries (Zhang et al., EDBT 2004 —
// reference [31] of the paper): the k data points with the smallest
// obstructed distance to a fixed query location.
//
// Implemented in the paper's framework: best-first browsing of the data
// R-tree by Euclidean mindist (a lower bound of the obstructed distance),
// with each candidate's exact obstructed distance computed by IOR over the
// shared local visibility graph, and termination once mindist exceeds the
// current k-th best obstructed distance.
//
// ONN is the building block of the degenerate zero-length CONN query: both
// run the same k-nearest loop (k = 1 for CONN), so they return the same
// neighbour with the same counters.

#ifndef CONN_CORE_ONN_H_
#define CONN_CORE_ONN_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/options.h"
#include "geom/vec.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

/// One obstructed nearest neighbor.
struct OnnNeighbor {
  int64_t pid = -1;
  double odist = 0.0;
};

/// Answer of an ONN point query: up to k neighbors, nearest first.
struct OnnResult {
  geom::Vec2 query;
  std::vector<OnnNeighbor> neighbors;
  QueryStats stats;
};

/// k obstructed nearest neighbors of \p query_point.
///
/// P and O normally live in two R-trees (the paper's default), and
/// \p data_tree must then hold points only.  Passing the *same* tree as
/// both arguments selects the 1-tree configuration of Section 4.5: the
/// unified tree serves both data points and obstacles, and all I/O is
/// charged to data_page_reads.
OnnResult OnnQuery(const rtree::RStarTree& data_tree,
                   const rtree::RStarTree& obstacle_tree,
                   geom::Vec2 query_point, size_t k,
                   const ConnOptions& opts = {});

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_ONN_H_
