// Incremental Obstacle Retrieval (IOR) — Algorithm 1 of the paper — and the
// obstacle-provisioning streams it consumes.
//
// IOR guarantees (Theorem 2 + Lemmas 3/4) that after it returns, the local
// visibility graph contains every obstacle that can affect the obstructed
// distance from the data point p to any point of the query segment, and
// that the shortest-path distances from p to the segment's endpoint
// vertices computed on the local graph equal the true obstructed distances.
//
// Obstacles arrive in ascending order of their minimum Euclidean distance
// to the query segment, either from a dedicated obstacle R-tree (2-tree
// configuration) or interleaved with data points from one unified R-tree
// (1-tree configuration, Section 4.5) — the ObstacleSource interface hides
// the difference.

#ifndef CONN_CORE_ODIST_H_
#define CONN_CORE_ODIST_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "rtree/best_first.h"
#include "vis/dijkstra.h"
#include "vis/settlement_log.h"
#include "vis/vis_graph.h"

namespace conn {
namespace core {

/// Why a bounded stream pop did (or did not) yield an object.  The main
/// query loops must distinguish kBoundReached (Lemma 2 actually pruned
/// remaining points) from kExhausted (the iterator simply ran dry) to keep
/// the lemma2_terminations statistic honest.
enum class StreamOutcome {
  kYielded,       ///< an object was produced
  kBoundReached,  ///< objects remain, but all lie beyond the bound
  kExhausted,     ///< the underlying stream has no objects left
};

/// Ascending-mindist stream of obstacles.
class ObstacleSource {
 public:
  virtual ~ObstacleSource() = default;

  /// Pops the next obstacle whose mindist to the query segment is <= bound.
  /// Returns false — without advancing past the bound — when none remains
  /// within it.
  virtual bool NextObstacleWithin(double bound, rtree::DataObject* out,
                                  double* dist) = 0;
};

/// 2-tree configuration: obstacles stream from their own R-tree.
class TreeObstacleSource : public ObstacleSource {
 public:
  TreeObstacleSource(const rtree::RStarTree& obstacle_tree,
                     const geom::Segment& q)
      : it_(obstacle_tree, q) {}

  bool NextObstacleWithin(double bound, rtree::DataObject* out,
                          double* dist) override;

 private:
  rtree::BestFirstIterator it_;
};

/// 1-tree configuration (Section 4.5): both sets share one R-tree.  Popped
/// obstacles are inserted into the visibility graph immediately (as in the
/// paper); popped data points are buffered for the main loop, preserving
/// their ascending-distance order.
class UnifiedStream : public ObstacleSource {
 public:
  UnifiedStream(const rtree::RStarTree& unified_tree, const geom::Segment& q,
                vis::VisGraph* vg)
      : it_(unified_tree, q), vg_(vg) {}

  // --- ObstacleSource (used by IOR) ---
  bool NextObstacleWithin(double bound, rtree::DataObject* out,
                          double* dist) override;

  /// Pops the next data point with distance <= bound.  Obstacles
  /// encountered on the way enter the visibility graph.  kBoundReached
  /// means entries remain beyond the bound — RLMAX genuinely cut the
  /// unified traversal short (they may be obstacles rather than points;
  /// telling those apart would cost the very I/O the bound saves);
  /// kExhausted means the stream ran dry.  The distinction drives Lemma-2
  /// stat accounting.
  StreamOutcome NextPointWithin(double bound, rtree::DataObject* out,
                                double* dist);

  /// Largest distance of any object popped from the underlying stream so
  /// far: every obstacle with mindist below this is already in the graph.
  double retrieved_up_to() const { return retrieved_up_to_; }

 private:
  rtree::BestFirstIterator it_;
  vis::VisGraph* vg_;
  std::deque<std::pair<rtree::DataObject, double>> pending_points_;
  double retrieved_up_to_ = 0.0;
};

/// Settlement-log coverage guard (differential tick repair): decorates an
/// obstacle source so that a retrieval wave whose bound a published
/// capsule covers is answered "none remains within the bound" without
/// touching the inner stream.  That answer is literally true of the *new*
/// obstacles IOR is looking for — the capsule proves every obstacle within
/// the bound is already in the graph — so IOR takes the same no-new-work
/// exit it takes when the stream yields only duplicates, and the inner
/// cursor never advances past anything it would later need.  Exactness is
/// the shard-sharing superset argument: the graph holds a superset of the
/// wave's Theorem-2 obstacle set either way.
class CoverageGuardedSource : public ObstacleSource {
 public:
  /// \p log may be null (guard disabled; pure pass-through).  \p client_tag
  /// identifies the querying client: a covered wave whose proving capsule
  /// was published by a *different* client counts one frontier_shares.
  CoverageGuardedSource(ObstacleSource* inner, const vis::SettlementLog* log,
                        const geom::Segment& q, int64_t client_tag,
                        QueryStats* stats)
      : inner_(inner),
        log_(log),
        query_(q),
        client_tag_(client_tag),
        stats_(stats) {}

  bool NextObstacleWithin(double bound, rtree::DataObject* out,
                          double* dist) override;

  /// Obstacles the inner source actually yielded through this guard — the
  /// caller diffs it across a retrieval to classify carried vs re-scored.
  uint64_t yields() const { return yields_; }

 private:
  ObstacleSource* inner_;
  const vis::SettlementLog* log_;
  geom::Segment query_;
  int64_t client_tag_;
  QueryStats* stats_;
  uint64_t yields_ = 0;
  // Per-wave coverage memo: IOR drains one wave with a fixed bound, so the
  // (linear-probe) capsule test runs once per wave, not once per obstacle.
  double memo_bound_ = -1.0;
  bool memo_covered_ = false;
};

/// Runs IOR (Algorithm 1) for data point \p p: repeatedly computes local
/// shortest paths from p to the \p targets vertices, fetches every obstacle
/// with mindist(o, q) within the current path bound, and iterates until the
/// bound stabilizes (Lemma 3).  \p retrieved_up_to carries the "previous
/// search distance d" across data points so the obstacle set O is consumed
/// at most once per query.
///
/// Returns the (now exact) maximum obstructed distance from p to the
/// targets — +infinity when some target is unreachable (in which case the
/// entire source has been drained, so the local graph is complete and all
/// later computations remain correct).
///
/// When \p out_scan is non-null it receives the final Dijkstra scan from p
/// (valid for the now-stable obstacle set) so CPLC can continue it instead
/// of re-seeding — the scan's settlement log already covers the search
/// range of Theorem 2.
///
/// \p arena (optional) backs the scan with pooled epoch-stamped state; a
/// query (or a batch shard) passes one arena so consecutive scans skip the
/// per-scan O(V) initialization.  With \p warm_restarts (the default) an
/// obstacle wave revalidates and extends the previous scan
/// (DijkstraScan::Revalidate) instead of recomputing it from scratch;
/// disabling it forces the paper-literal fresh scan per Lemma-3 iteration
/// — the reference path the equivalence suite compares against.
double IncrementalObstacleRetrieval(
    ObstacleSource* source, vis::VisGraph* vg,
    const std::vector<vis::VertexId>& targets, geom::Vec2 p,
    double* retrieved_up_to, QueryStats* stats,
    std::unique_ptr<vis::DijkstraScan>* out_scan = nullptr,
    vis::ScanArena* arena = nullptr, bool warm_restarts = true);

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_ODIST_H_
