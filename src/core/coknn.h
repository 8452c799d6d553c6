// COkNN query processing (Section 4.5 of the paper): the k obstructed
// nearest neighbors of every point along a query segment.
//
// The result generalizes CONN's tuples to <ONNS_i, R_i> where ONNS_i is the
// *set* of the k nearest points over interval R_i.  Intervals are split
// wherever set membership changes, i.e., at crossings between the distance
// curve of an arriving candidate and the curves already in the set — and,
// because which member is "the worst" can change inside an interval, also
// at crossings among the existing members (the classification is done by
// exact midpoint ranking between consecutive crossings).
//
// The Lemma 2 pruning bound becomes RLMAX = max_i maxodist(ONNS_i, R_i
// endpoints), +infinity while any interval holds fewer than k candidates
// (distance curves are convex, so endpoint values bound the interval).
// Everything else is CONN's: the same main loop and per-point step
// (internal::QueryScope::RunAlgorithm4) run with KnnResultList as the
// result list.

#ifndef CONN_CORE_COKNN_H_
#define CONN_CORE_COKNN_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/cpl.h"
#include "core/options.h"
#include "core/result_list.h"
#include "geom/interval_set.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

class QueryWorkspace;  // core/workspace.h — reusable cross-query state

/// One member of an interval's k-NN candidate set.
struct KnnCandidate {
  int64_t pid = kNoPoint;
  geom::Vec2 cp;
  double offset = 0.0;

  geom::DistanceCurve Curve(const geom::SegmentFrame& frame) const {
    return geom::DistanceCurve::FromControlPoint(frame, cp, offset);
  }
};

/// One tuple <ONNS, R> of the COkNN result; candidates are sorted by their
/// obstructed distance at the interval midpoint (nearest first).
struct CoknnTuple {
  geom::Interval range;
  std::vector<KnnCandidate> candidates;
};

/// Complete answer of a COkNN query.
struct CoknnResult {
  geom::Segment query;
  size_t k = 1;
  std::vector<CoknnTuple> tuples;  ///< ordered partition of the reachable q
  geom::IntervalSet unreachable;
  QueryStats stats;

  /// Ids of the k nearest points at parameter t, nearest first.
  std::vector<int64_t> KnnAt(double t) const;

  /// Obstructed distance of the j-th nearest (0-based) at parameter t.
  double OdistAt(double t, size_t j) const;

  /// Frame-hoisted variants for hot verification loops: the caller builds
  /// geom::SegmentFrame(query) once and probes many parameters.
  std::vector<int64_t> KnnAt(double t, const geom::SegmentFrame& frame) const;
  double OdistAt(double t, size_t j, const geom::SegmentFrame& frame) const;

  /// Binary-searches the ordered tuple partition for the tuple containing
  /// parameter \p t (nullptr when t falls in no tuple, e.g. unreachable).
  const CoknnTuple* FindTuple(double t) const;
};

/// The running COkNN result list (exposed for unit tests).
class KnnResultList {
 public:
  KnnResultList(const geom::IntervalSet& domain, size_t k);

  const std::vector<CoknnTuple>& tuples() const { return tuples_; }

  /// Generalized RLMAX (see file comment).
  double RlMax(const geom::SegmentFrame& frame) const;

  /// Merges data point \p pid's control point list into the candidate sets.
  void Update(int64_t pid, const ControlPointList& cpl,
              const geom::SegmentFrame& frame, QueryStats* stats);

 private:
  void AssignCandidate(const KnnCandidate& cand,
                       const geom::Interval& region,
                       const geom::SegmentFrame& frame, QueryStats* stats);
  void MergeAdjacent(const geom::SegmentFrame& frame);

  size_t k_;
  std::vector<CoknnTuple> tuples_;
};

/// Prior-tick state a moving-query subscription client carries into its
/// next tick.  The workspace half of warm starting (the carried obstacle
/// graph + scan arena) is already expressed through the \p workspace
/// parameter — a tick-loop caller simply passes the *same* workspace it
/// used last tick.  TickWarmStart adds the result half: the previous
/// answer, enabling the stationary-segment memo.
struct TickWarmStart {
  /// Last tick's result for this client (null on the client's first tick,
  /// or when the caller discarded it).  Must outlive the query call.
  const CoknnResult* prior = nullptr;
};

/// COkNN: the k obstructed nearest neighbors of every point of \p q.
///
/// Index configuration.  P and O normally live in two R-trees, and
/// \p data_tree must then hold points only.  Passing the *same* tree as
/// both arguments selects the 1-tree configuration of Section 4.5: one
/// best-first traversal of the unified tree yields data points and
/// obstacles interleaved, and all I/O is charged to data_page_reads.
///
/// Workspace.  With a non-null \p workspace (batch and tick execution) the
/// query runs against that shared graph instead of building a fresh one.
/// Results are identical, because the shared graph holds a superset of the
/// query's Theorem-2 obstacle set; per-query I/O and graph-size statistics
/// then describe the shared state.
///
/// Stationary-segment memo, under `opts.use_tick_warm_start`: when
/// \p warm.prior holds a result for the identical (segment, k) query, that
/// answer is re-reported without touching the trees (stats carry
/// `tick_warm_starts = 1` and no retrieval work); it is bit-identical to a
/// fresh evaluation.  Any other query is evaluated in full, on a carried
/// workspace exactly as on a fresh or shard-shared one.
CoknnResult CoknnQuery(const rtree::RStarTree& data_tree,
                       const rtree::RStarTree& obstacle_tree,
                       const geom::Segment& q, size_t k,
                       const ConnOptions& opts = {},
                       QueryWorkspace* workspace = nullptr,
                       const TickWarmStart& warm = {});

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_COKNN_H_
