// Result List and its update procedure (RLU) — Algorithm 3 of the paper.
//
// The result list RL partitions the reachable portion of the query segment
// into tuples <p_i, cp_i, R_i>: data point p_i is the obstructed NN of
// every point of R_i and its shortest paths there pass control point cp_i.
// Evaluating a new data point p merges its control point list into RL,
// splitting intervals at the (at most two per pair, Theorem 1) curve
// crossings and applying the Lemma 1 endpoint-dominance fast path.
//
// RL is a control point list whose entries carry data point ids, and RLU
// is CPLC's merge step: Algorithms 2 and 3 share ContestEntries and CplMax
// (core/cpl.h).

#ifndef CONN_CORE_RESULT_LIST_H_
#define CONN_CORE_RESULT_LIST_H_

#include <cstdint>

#include "common/stats.h"
#include "core/cpl.h"
#include "geom/curve.h"
#include "geom/interval_set.h"

namespace conn {
namespace core {

/// The running CONN result over the reachable domain of q.
class ResultList {
 public:
  /// Initializes one unset entry per reachable piece of the query segment.
  /// \p use_lemma1_prune selects the Lemma 1 fast path of every Update.
  explicit ResultList(const geom::IntervalSet& domain,
                      bool use_lemma1_prune = true);

  const ControlPointList& entries() const { return entries_; }

  /// RLMAX of Lemma 2: the largest endpoint distance over all entries;
  /// +infinity while any reachable interval still lacks an ONN.
  double RlMax(const geom::SegmentFrame& frame) const;

  /// RLU (Algorithm 3): merges data point \p pid's control point list into
  /// the running result.
  void Update(int64_t pid, const ControlPointList& cpl,
              const geom::SegmentFrame& frame, QueryStats* stats);

  /// Obstructed distance of the current ONN at parameter \p t
  /// (+infinity where unset / outside the domain).
  double OdistAt(double t, const geom::SegmentFrame& frame) const;

  /// Current ONN id at parameter \p t (kNoPoint where unset / outside).
  int64_t OnnAt(double t) const;

 private:
  ControlPointList entries_;
  bool use_lemma1_prune_;
};

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_RESULT_LIST_H_
