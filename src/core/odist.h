// Incremental Obstacle Retrieval (IOR) — Algorithm 1 of the paper — and the
// obstacle-provisioning streams it consumes.
//
// IOR guarantees (Theorem 2 + Lemmas 3/4) that after it returns, the
// shortest-path distances from the data point p computed on the local
// visibility graph equal the true obstructed distances: to the query
// segment's endpoint vertices, and to every point of its reachable pieces.
//
// Obstacles arrive in ascending order of their minimum Euclidean distance
// to the query segment, either from a dedicated obstacle R-tree (2-tree
// configuration) or interleaved with data points from one unified R-tree
// (1-tree configuration, Section 4.5) — the ObstacleSource interface hides
// the difference.  IOR streams every obstacle with mindist(o, q) <= d, the
// largest local distance from p to a target (the Theorem 2 search range),
// exactly as Algorithm 1 does, but inserts into the graph only those that
// can touch a path from p to a point of q's reachable pieces.
//
// The targets come in piece-endpoint pairs [a, b] (a single anchor target
// for the point queries and joins, which is the zero-length piece [a, a]).
// With d_a, d_b the current local distances of the endpoints, len = |ab|
// and s(t) = a + t·(b - a)/len, every point of the piece has the bound
//
//   B(t) = min(d_a + t, d_b + len - t),
//
// whose peak is at t* = clamp((len + d_b - d_a) / 2, 0, len).  An obstacle
// is admitted when it lies in the ellipse of some piece with foci p and
// s* = s(t*) and bound B* = B(t*):
//
//   admitted  <=>  mindist(p, o) + mindist(o, s*) <= B*  for some piece
//
// (plus a rounding slack, odist.cc; a single anchor gives s* = a and
// B* = d; an unreachable target, d = +inf, admits everything).  The other
// streamed obstacles are parked in the source and re-tested for every later
// point, whose own ellipses may reach them.  So NOE counts admitted
// obstacles, fewer than Algorithm 1 inserts; the obstacle stream, and with
// it every page read, is unchanged.
//
// Exactness.  Write L(p, s) for the local distance from p to a point s.
//   1. Local distances never exceed true ones: the local graph holds a
//      subset of the obstacles.
//   2. Along a reachable piece [a, b], which no obstacle interior crosses,
//      a and b see every point of the piece, so L(p, s(t)) <= B(t) (and
//      |d_a - d_b| <= len: exactly, t* needs no clamp).
//   3. A path of length L from p to s lies inside the ellipse
//      {x : |px| + |xs| <= L}.  If the local shortest path to s(t) meets an
//      obstacle o at x, the gap
//        g(t) = mindist(p, o) + f(t) - B(t),  f(t) = mindist(o, s(t)),
//      is <= |px| + |x s(t)| - B(t) <= L(p, s(t)) - B(t) <= 0.
//   4. f is 1-Lipschitz in t, so f(t) - (d_a + t) is non-increasing and
//      f(t) - (d_b + len - t) non-decreasing.  B(t) is the first bound for
//      t <= t* and the second for t >= t*, so g is non-increasing up to t*
//      and non-decreasing after it: g(t*) <= g(t) <= 0.  The obstacle lies
//      in the piece's peak ellipse; if it was streamed, it was admitted.
//      No local shortest path to a point of a piece, the targets included,
//      crosses an obstacle that was streamed but parked.
//   5. When an iteration admits nothing, every obstacle with mindist(o, q)
//      <= d has been streamed.  An obstacle meeting the local shortest path
//      to a target t at x has mindist(o, q) <= |xt| <= d_t <= d, so it was
//      streamed, and by 4 admitted: the paths to the targets are valid in
//      the full scene (Lemma 3), and the d_t are exact.  The local
//      shortest path to any s on a piece then avoids every obstacle within
//      d (admitted ones as a graph path, parked ones by 4), and by 1 no
//      path of the scene holding just those obstacles is shorter: L(p, s)
//      is the distance in that scene, which Theorem 2 makes the true one,
//      exactly as for Algorithm 1's graph.  So every distance CPLC reads
//      is exact.
// A shard-shared or tick-carried graph also holds the obstacles earlier
// queries admitted.  They are obstacles of the scene, so 1 still holds, and
// every later step goes through unchanged.

#ifndef CONN_CORE_ODIST_H_
#define CONN_CORE_ODIST_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "geom/box.h"
#include "rtree/best_first.h"
#include "vis/dijkstra.h"
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

/// A streamed obstacle that IOR has not inserted into the graph yet.
struct ParkedObstacle {
  geom::Rect rect;
  rtree::ObjectId id = 0;
};

/// The peak of a reachable piece's local-distance bound (file comment):
/// the point s* where an obstacle's admission gap is smallest, and B*.
struct PiecePeak {
  geom::Vec2 s;
  double bound = 0.0;
};

/// s* and B* of the piece [a, b] whose endpoints have the finite local
/// distances \p d_a and \p d_b.  A zero-length piece gives s* = a and
/// B* = min(d_a, d_b).
PiecePeak PeakOfPiece(geom::Vec2 a, geom::Vec2 b, double d_a, double d_b);

/// Ascending-mindist stream of obstacles, plus the obstacles IOR streamed
/// from it but parked (see the file comment).  Every source parks the same
/// way; the parked list lives as long as the source, so it dies with the
/// query.  On a shard-shared graph a later query re-streams those
/// obstacles, and VisGraph::AddObstacle's id dedupe keeps one copy.
class ObstacleSource {
 public:
  ObstacleSource() = default;
  virtual ~ObstacleSource() = default;

  ObstacleSource(const ObstacleSource&) = delete;
  ObstacleSource& operator=(const ObstacleSource&) = delete;

  /// Pops the next obstacle whose mindist to the query segment is <= bound.
  /// Returns false — without advancing past the bound — when none remains
  /// within it.
  virtual bool NextObstacleWithin(double bound, rtree::DataObject* out,
                                  double* dist) = 0;

  /// Obstacles streamed from this source and not yet inserted, in stream
  /// order.  IOR owns the contents.
  std::vector<ParkedObstacle>& parked() { return parked_; }

 private:
  std::vector<ParkedObstacle> parked_;
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

/// 1-tree configuration (Section 4.5): both sets share one R-tree.
/// Obstacles the point stream pops are inserted into the visibility graph
/// immediately (as in the paper); only IOR's own pulls are parked.  Data
/// points popped by IOR's pulls are buffered for the main loop, preserving
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
  /// far: every obstacle with mindist below this is in the graph or parked.
  double retrieved_up_to() const { return retrieved_up_to_; }

 private:
  rtree::BestFirstIterator it_;
  vis::VisGraph* vg_;
  std::deque<std::pair<rtree::DataObject, double>> pending_points_;
  double retrieved_up_to_ = 0.0;
};

/// Runs IOR (Algorithm 1) for data point \p p.  Each iteration settles the
/// \p targets on the local graph (giving d and each piece's peak
/// ellipse), admits the parked obstacles in some peak ellipse, streams the
/// obstacles up to d that earlier iterations and points have not streamed
/// (admitting those in some peak ellipse and parking the rest), and
/// starts a new scan on the grown graph.  It stops when an
/// iteration admits nothing (Lemma 3).  \p retrieved_up_to carries the
/// "previous search distance d" across data points so the obstacle set O
/// is streamed at most once per query.
///
/// \p targets is either one anchor vertex or the endpoint vertices of the
/// query's reachable pieces in pairs, as internal::AddTargetVertices makes
/// them: targets[2i] and targets[2i + 1] bound one piece.  The peak
/// ellipses are derived from that pairing (see the file comment).
///
/// Returns the (now exact) maximum obstructed distance from p to the
/// targets — +infinity when some target is unreachable (in which case the
/// entire source has been drained and admitted, so the local graph is
/// complete and all later computations remain correct).
///
/// When \p out_scan is non-null it receives the final Dijkstra scan from p
/// (valid for the now-stable obstacle set) so CPLC can continue it instead
/// of re-seeding — the scan's settlement log already covers the search
/// range of Theorem 2.
///
/// \p arena (optional) backs the scans with pooled epoch-stamped state; a
/// query (or a batch shard) passes one arena so consecutive scans skip the
/// per-scan O(V) initialization.
///
/// The trailing bool has no effect.  It selected warm scan restarts, which
/// saved nothing once admission was ellipse-bounded and were removed; kept
/// because perfbench/replay.cc:140-142 (ReplayBody) still passes it.
double IncrementalObstacleRetrieval(
    ObstacleSource* source, vis::VisGraph* vg,
    const std::vector<vis::VertexId>& targets, geom::Vec2 p,
    double* retrieved_up_to, QueryStats* stats,
    std::unique_ptr<vis::DijkstraScan>* out_scan = nullptr,
    vis::ScanArena* arena = nullptr, bool /*unused*/ = true);

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_ODIST_H_
