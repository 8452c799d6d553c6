// Control Point List Computation (CPLC) — Algorithm 2 of the paper.
//
// The control point list CPL(p, q) (Definition 9) partitions the query
// segment into intervals, each tagged with the vertex cp through which
// every shortest path from p to that interval passes (Definition 8), plus
// the accumulated distance ||p, cp||.  The obstructed distance from p to
// q(t) is then the simple curve ||p, cp|| + dist(cp, q(t)) — the form all
// split-point computation relies on.
//
// The computation walks the local visibility graph from p in ascending
// obstructed distance (an incremental Dijkstra scan) and, per settled
// vertex v with shortest-path predecessor u:
//   * restricts v's candidacy to VR(v) - VR(u)       (Lemma 5),
//   * drops intervals failing the triangle test      (Lemma 6),
//   * stops the scan at ||p, v|| >= CPLMAX           (Lemma 7),
// merging each surviving candidate into the list via the robust curve
// comparison of geom/split.h.
//
// That merge step — ContestEntries — is also RLU's (Algorithm 3, see
// core/result_list.h): a control point list and the result list are the
// same object, an ordered partition of q's reachable pieces, each held by
// one curve ||., cp|| + dist(cp, q(t)).  A challenger curve contests the
// pieces it overlaps: an incumbent the Lemma 1 endpoint test shows
// dominant keeps its piece, any other piece splits at the at most two
// crossings of the curves (Theorem 1).  The lists differ only in who holds
// a piece: CPLC's pieces carry kThisPoint, RLU's the id of the data point.

#ifndef CONN_CORE_CPL_H_
#define CONN_CORE_CPL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/options.h"
#include "geom/curve.h"
#include "geom/interval.h"
#include "geom/interval_set.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace core {

/// Sentinel point id for "no ONN known yet".
inline constexpr int64_t kNoPoint = -1;

/// The holder of every claimed entry of a control point list: the list
/// belongs to one data point, whose id RLU supplies when it merges it.
inline constexpr int64_t kThisPoint = 0;

/// One tuple <pid, cp, R> of a control point list or of the result list:
/// data point pid reaches every point of R through control point cp, at
/// obstructed distance ||pid, cp|| + dist(cp, q(t)).  `pid == kNoPoint`
/// marks an interval nobody reaches yet (in a control point list: no
/// vertex sees it, or it is blocked entirely).
struct CplEntry {
  int64_t pid = kNoPoint;
  geom::Vec2 cp;        ///< control point position
  double offset = 0.0;  ///< ||pid, cp||
  geom::Interval range;

  bool has_value() const { return pid != kNoPoint; }

  /// Distance curve of this entry over the frame.
  geom::DistanceCurve Curve(const geom::SegmentFrame& frame) const {
    return geom::DistanceCurve::FromControlPoint(frame, cp, offset);
  }
};

/// Ordered partition of the query domain (the reachable part of q).
using ControlPointList = std::vector<CplEntry>;

/// Per-query cache of visible regions VR(v, q).  A vertex's visible region
/// depends only on the vertex and the obstacle set, not on the data point
/// being evaluated, so one cache serves every CPLC run of a query; it
/// self-invalidates when the graph's obstacle epoch advances.
///
/// Invalidation is selective: every sight-line contributing to VR(v) lies
/// inside the triangle (v, q.a, q.b), so an epoch bump only evicts entries
/// whose triangle's bounding box a newly added obstacle rectangle can
/// intersect — spatially distant entries survive the wave.
class VisibleRegionCache {
 public:
  /// The (cached) visible region of vertex \p v over the frame's segment.
  const geom::IntervalSet& Get(vis::VisGraph* vg, vis::VertexId v,
                               const geom::SegmentFrame& frame,
                               uint64_t* test_counter);

  /// Entries dropped by selective invalidation so far (-> stats).
  uint64_t evictions() const { return evictions_; }

 private:
  std::vector<std::optional<geom::IntervalSet>> cache_;
  uint64_t epoch_ = 0;
  size_t obstacle_watermark_ = 0;  ///< obstacles already reconciled
  uint64_t evictions_ = 0;
};

/// Computes CPL(p, q) on the (IOR-completed) local visibility graph,
/// restricted to \p domain — the reachable portion of the query segment
/// (sub-intervals of q inside obstacle interiors are excluded up front so
/// the Lemma 7 bound CPLMAX stays finite).
///
/// \p scan must be a Dijkstra scan from p over the current graph (normally
/// the one IOR just finished — its settlement log is replayed and extended
/// in place).  \p vr_cache (optional) shares visible regions across the
/// query's CPLC runs.  \p stats (optional) receives split/lemma counters.
ControlPointList ComputeControlPointList(vis::VisGraph* vg,
                                         vis::DijkstraScan* scan,
                                         geom::Vec2 p,
                                         const geom::SegmentFrame& frame,
                                         const geom::IntervalSet& domain,
                                         const ConnOptions& opts,
                                         QueryStats* stats,
                                         VisibleRegionCache* vr_cache);

/// Convenience overload: seeds its own scan and cache (tests, one-shot use).
ControlPointList ComputeControlPointList(vis::VisGraph* vg, geom::Vec2 p,
                                         const geom::SegmentFrame& frame,
                                         const geom::IntervalSet& domain,
                                         const ConnOptions& opts,
                                         QueryStats* stats);

/// The starting partition of CPLC and RLU: one unheld entry per piece of
/// \p domain.
ControlPointList UnheldPieces(const geom::IntervalSet& domain);

/// The merge step of CPLC and RLU: point \p pid's curve through \p cp at
/// \p offset contests every entry of \p list over \p regions.  An unheld
/// piece goes to the challenger (Algorithm 2, lines 11-12); a held one stays
/// whole if the incumbent dominates at both ends (Lemma 1, when
/// \p use_lemma1_prune) and is otherwise split at the curves' crossings.
/// Then adjacent entries of one curve merge and eps-slivers are absorbed.
/// Returns whether any entry was contested.  The merge pass runs either way
/// (for empty \p regions, neither step runs); an uncontested list is one
/// the pass has merged before, or a fresh partition whose pieces IntervalSet
/// keeps apart by the same geom::Adjacent test, so it comes back unchanged
/// and a cached CPLMAX stays valid.
bool ContestEntries(ControlPointList* list, int64_t pid, geom::Vec2 cp,
                    double offset, const geom::IntervalSet& regions,
                    const geom::SegmentFrame& frame, bool use_lemma1_prune,
                    QueryStats* stats);

/// CPLMAX of Lemma 7 (and RLMAX of Lemma 2): the largest endpoint value over
/// all entries (+infinity while some interval is not held yet).
double CplMax(const ControlPointList& cpl, const geom::SegmentFrame& frame);

/// Sanity check for tests: entries tile \p domain in order.
bool CplIsPartition(const ControlPointList& cpl,
                    const geom::IntervalSet& domain);

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_CPL_H_
