// CONN query processing — Algorithm 4 of the paper.
//
// Given a data R-tree Tp, an obstacle R-tree To (or one unified tree passed
// as both, Section 4.5) and a query segment q, returns the exact obstructed
// nearest neighbor of every point of q as a list of <point, control point,
// interval> tuples.  Data points are consumed in ascending mindist(p, q)
// order (best-first browsing); each one runs IOR (obstacle completion),
// CPLC (control point list) and RLU (result merge); the loop stops at the
// Lemma 2 bound RLMAX.  COkNN and CNN run the same loop
// (internal::RunMainLoop in core/engine_internal.h) with their own result
// list or control point lists.
//
// Degenerate and adversarial inputs are first-class:
//   * zero-length q degrades to an ONN point query;
//   * parts of q inside obstacle interiors are detected up front, reported
//     in ConnResult::unreachable, and excluded from the RLMAX bound; when
//     that is all of q, the loop does not run and there are no tuples;
//   * data points unreachable from q (walled off) never become ONN; if
//     every point is unreachable the tuples keep pid == kNoPoint.

#ifndef CONN_CORE_CONN_H_
#define CONN_CORE_CONN_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/options.h"
#include "core/result_list.h"
#include "geom/interval_set.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

class QueryWorkspace;  // core/workspace.h — reusable cross-query state

/// One tuple of the final CONN result.
struct ConnTuple {
  int64_t point_id = kNoPoint;  ///< ONN over range (kNoPoint: none exists)
  geom::Vec2 control_point;     ///< all shortest paths pass through here
  double offset = 0.0;          ///< ||point, control_point||
  geom::Interval range;         ///< arc-length interval of q
};

/// Complete answer of a CONN query.
struct ConnResult {
  geom::Segment query;
  std::vector<ConnTuple> tuples;   ///< ordered partition of the reachable q
  geom::IntervalSet unreachable;   ///< parts of q inside obstacle interiors
  QueryStats stats;

  /// Obstructed distance from q(t) to its ONN (+infinity if none).
  double OdistAt(double t) const;

  /// ONN id at parameter t (kNoPoint if none / unreachable).
  int64_t OnnAt(double t) const;

  /// Tuples with consecutive ranges of the same point id merged — the
  /// <p, R> view of Definition 6 (control points elided).
  std::vector<std::pair<int64_t, geom::Interval>> MergedByPoint() const;

  /// Split points: interior tuple boundaries where the ONN changes.
  std::vector<double> SplitParams() const;
};

/// CONN: the obstructed nearest neighbor of every point of \p q.
///
/// P and O normally live in two R-trees (the paper's default), and
/// \p data_tree must then hold points only.  Passing the *same* tree as
/// both arguments selects the 1-tree configuration of Section 4.5: one
/// best-first traversal of the unified tree yields data points and
/// obstacles interleaved, and all I/O is charged to data_page_reads.  A
/// non-null \p workspace (batch execution) makes the query reuse that
/// shared obstacle graph instead of building its own; results are
/// identical either way.
ConnResult ConnQuery(const rtree::RStarTree& data_tree,
                     const rtree::RStarTree& obstacle_tree,
                     const geom::Segment& q, const ConnOptions& opts = {},
                     QueryWorkspace* workspace = nullptr);

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_CONN_H_
