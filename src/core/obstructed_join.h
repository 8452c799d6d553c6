// Obstacle-aware join queries — the remainder of the query family of
// Zhang et al. (EDBT 2004, reference [31] of the paper): e-distance joins,
// (k-)closest pairs, and distance semi-joins, all under obstructed
// distance.
//
// All three ride on the incremental Euclidean pair join (rtree/pair_join):
// the Euclidean pair distance lower-bounds the obstructed pair distance,
// so the pair stream can be cut at the join radius (e-join) or at the
// current k-th best (closest pairs).  Exact obstructed distances come from
// IOR over per-left-object local visibility graphs that are reused across
// all right-side partners of the same left object.  IOR runs as it does
// for ONN, so the ConnOptions of every join are honoured
// (use_warm_scan_restarts = false selects the paper-literal fresh scan).

#ifndef CONN_CORE_OBSTRUCTED_JOIN_H_
#define CONN_CORE_OBSTRUCTED_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/options.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

/// One joined pair.
struct JoinPair {
  int64_t a_pid = -1;
  int64_t b_pid = -1;
  double odist = 0.0;
};

/// Answer of an obstructed join; pairs sorted by obstructed distance.
struct JoinResult {
  std::vector<JoinPair> pairs;
  QueryStats stats;
};

/// e-distance join: all pairs (a, b) in A x B with odist(a, b) <= e.
JoinResult ObstructedEDistanceJoin(const rtree::RStarTree& tree_a,
                                   const rtree::RStarTree& tree_b,
                                   const rtree::RStarTree& obstacle_tree,
                                   double e, const ConnOptions& opts = {});

/// k closest pairs of A x B by obstructed distance (fewer if reachable
/// pairs run out).
JoinResult ObstructedClosestPairs(const rtree::RStarTree& tree_a,
                                  const rtree::RStarTree& tree_b,
                                  const rtree::RStarTree& obstacle_tree,
                                  size_t k, const ConnOptions& opts = {});

/// Distance semi-join: for every a in A, its obstructed nearest neighbor
/// in B (pairs ordered by a's id; unreachable a's omitted).
JoinResult ObstructedSemiJoin(const rtree::RStarTree& tree_a,
                              const rtree::RStarTree& tree_b,
                              const rtree::RStarTree& obstacle_tree,
                              const ConnOptions& opts = {});

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_OBSTRUCTED_JOIN_H_
