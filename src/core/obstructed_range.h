// Obstructed range query — another member of the obstacle-aware query
// family of Zhang et al. (EDBT 2004, reference [31] of the paper): all data
// points whose OBSTRUCTED distance to a query location is at most a radius.
//
// Processing runs on ONN's point stream: best-first browsing of the data
// R-tree by Euclidean mindist (a lower bound of the obstructed distance, so
// the stream can stop at the radius), with each candidate's exact
// obstructed distance computed by IOR over a shared local visibility graph.

#ifndef CONN_CORE_OBSTRUCTED_RANGE_H_
#define CONN_CORE_OBSTRUCTED_RANGE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/onn.h"
#include "core/options.h"
#include "geom/vec.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

/// Answer of an obstructed range query: members sorted by obstructed
/// distance, nearest first.
struct ObstructedRangeResult {
  geom::Vec2 query;
  double radius = 0.0;
  std::vector<OnnNeighbor> members;
  QueryStats stats;
};

/// All points p of the data tree with odist(p, query_point) <= radius.
///
/// P and O normally live in two R-trees (the paper's default), and
/// \p data_tree must then hold points only.  Passing the *same* tree as
/// both arguments selects the 1-tree configuration of Section 4.5: the
/// unified tree serves both data points and obstacles, and all I/O is
/// charged to data_page_reads.
ObstructedRangeResult ObstructedRangeQuery(
    const rtree::RStarTree& data_tree, const rtree::RStarTree& obstacle_tree,
    geom::Vec2 query_point, double radius, const ConnOptions& opts = {});

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_OBSTRUCTED_RANGE_H_
