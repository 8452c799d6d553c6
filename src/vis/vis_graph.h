// Local visibility graph (Section 4.1 of the paper).
//
// Unlike the classic global visibility graph (O(n^2) space over all 4|O|
// obstacle corners, Section 2.4), this graph holds only the obstacles IOR
// has retrieved so far plus a handful of fixed target vertices (the query
// segment's endpoints — one pair per reachable piece of q).  It is *shared
// and reused* across all data points of one CONN query: obstacles only
// accumulate, and "the IOR for all the points in P will access the obstacle
// set O at most once".
//
// Since the batch executor (src/exec) the graph is also shared *across
// queries of one shard*: obstacles persist for the lifetime of the graph,
// while each query's fixed target vertices are scoped to a QuerySession and
// removed when the session ends.  AddObstacle deduplicates by obstacle id,
// so overlapping incremental retrievals of spatially close queries pay for
// each obstacle's insertion (corner adjacency + edge pruning) exactly once.
//
// Adjacency maintenance is incremental ("the insertion/deletion/update can
// be efficiently supported", Section 1): a vertex's list is computed
// eagerly on insertion and then kept valid under obstacle insertions by
// (a) pruning exactly the cached edges the new rectangle blocks and
// (b) eagerly computing the four new corners' edges and patching them into
// the cached lists of their visible counterparts.  Fixed-vertex insertion
// and removal patch the same way, relying on the symmetry invariant
// (u in adj[v] <=> v in adj[u]).  bench/micro_visgraph measures this
// against rebuilding the graph from scratch at every query checkpoint.
//
// Both steps of an insertion skip work that cannot change their result.
// (a) only visits lists whose reach box — a rectangle covering the vertex
// and every vertex in its list, grown on every append and never shrunk —
// meets the new rectangle; any other list holds no edge the bbox
// pre-filter would pass.  (b) computes a corner's list (RecomputeAdjacency,
// also run for fixed vertices) in three steps per candidate:
//   1. the O(1) own-rectangle test (DirectionEntersCorner);
//   2. the angular shadow map: before the candidates, the directions
//      around the new vertex v are split into bins of diamond
//      pseudo-angle, and each bin records the smallest squared distance
//      to the farthest corner of any obstacle's kEpsInterior-shrunk
//      rectangle that covers the whole bin with a margin.  A candidate
//      farther than its bin's value is hidden: the sight line runs
//      strictly inside that rectangle's angular span, so it crosses the
//      rectangle, and it leaves it before reaching the candidate.  The
//      margin keeps the Liang-Barsky parameters of that crossing apart
//      by far more than their rounding, so SegmentCrossesInterior — and
//      with it the sight-line walk — would answer "blocked" as well.
//      Obstacles that contain v or touch it within tolerance, that are
//      thin against their distance, or whose span nears a half-turn are
//      left out of the map;
//   3. otherwise the sight-line walk (ObstacleSet::Visible).
// The map only skips walks whose answer it proves, so every list, its
// order and its lengths are the same as with the walk alone; only the
// visibility-test count falls.

#ifndef CONN_VIS_VIS_GRAPH_H_
#define CONN_VIS_VIS_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/stats.h"
#include "geom/segment.h"
#include "vis/grid_index.h"
#include "vis/obstacle_set.h"

namespace conn {
namespace vis {

/// Vertex handle within a VisGraph.
using VertexId = uint32_t;

/// One weighted visibility edge.
struct VisEdge {
  VertexId to;
  double length;
};

/// The incrementally grown local visibility graph.
class VisGraph {
 public:
  /// \p domain must cover the workspace; \p stats (optional) receives
  /// visibility-test counts.
  explicit VisGraph(const geom::Rect& domain, QueryStats* stats = nullptr);

  /// Adds a fixed vertex (query-segment endpoints).  Works on a graph that
  /// already holds obstacles: the vertex's adjacency is computed eagerly
  /// and reciprocal edges are patched into the cached lists of its visible
  /// counterparts.  Freed slots from RemoveFixedVertices are reused, so
  /// shard-shared graphs do not grow with query count.
  VertexId AddFixedVertex(geom::Vec2 p);

  /// Removes fixed vertices added earlier (must not be obstacle corners):
  /// unpatches their reciprocal edges and recycles the slots.  Prefer the
  /// QuerySession RAII wrapper.
  void RemoveFixedVertices(const std::vector<VertexId>& ids);

  /// Inserts an obstacle: registers its rectangle for blocking tests, adds
  /// its four corners as vertices, and patches cached adjacency.  Returns
  /// false (and changes nothing) when an obstacle with this id is already
  /// present — the cross-query reuse fast path of shard-shared graphs.
  bool AddObstacle(const geom::Rect& rect, rtree::ObjectId id);

  /// Number of vertex slots, live and recycled (|SVG| of Section 5.1,
  /// excluding transient points).  Dijkstra arrays are sized by this.
  size_t VertexCount() const { return vertices_.size(); }

  /// True iff slot \p v currently holds a vertex.
  bool IsAlive(VertexId v) const { return alive_[v]; }

  /// Number of obstacles inserted so far.
  size_t ObstacleCount() const { return obstacles_.size(); }

  /// AddObstacle calls skipped because the obstacle was already present —
  /// the work saved by sharing one workspace across a shard of queries.
  uint64_t DuplicateObstacleSkips() const { return duplicate_obstacle_skips_; }

  /// Monotone counter bumped by every effective AddObstacle; consumers
  /// caching data derived from the obstacle set (e.g. visible regions)
  /// revalidate against it.  Adjacency lists do NOT use it — they are
  /// patched in place on insertion.
  uint64_t epoch() const { return epoch_; }

  geom::Vec2 VertexPos(VertexId v) const { return vertices_[v]; }

  const ObstacleSet& obstacles() const { return obstacles_; }

  /// Spatial index of the live vertices (items are VertexIds; recycled
  /// slots are removed on RemoveFixedVertices).  DijkstraScan expands its
  /// seed frontier through this grid's distance rings instead of sorting
  /// the full vertex set per scan.
  const GridIndex& vertex_grid() const { return vertex_grid_; }

  /// Redirects visibility/obstacle counters (nullptr disables).  A shard-
  /// shared graph points this at the stats of the query currently running.
  void set_stats(QueryStats* stats) { stats_ = stats; }
  QueryStats* stats() const { return stats_; }

  /// Visibility test between two arbitrary points against the local
  /// obstacle set (counted into stats).
  bool Visible(geom::Vec2 a, geom::Vec2 b) const;

  /// Adjacency list of \p v: computed when v is added, thereafter kept
  /// valid across AddObstacle calls by incremental patching.
  const std::vector<VisEdge>& Neighbors(VertexId v) const { return adj_[v]; }

 private:
  /// Per-vertex corner metadata for the O(1) own-rectangle rejection.
  struct CornerInfo {
    bool is_corner = false;
    geom::Vec2 inward;    // axis signs into the rectangle
    geom::Vec2 inner;     // width and height, less kEpsInterior
    double margin = 0.0;  // 1e-12 * (1 + the corner's largest coordinate)
  };

  /// True iff the segment from corner \p v to vertices_[v] + \p away
  /// provably crosses the kEpsInterior-shrunk interior of v's rectangle, so
  /// SegmentCrossesInterior, and with it the sight-line walk, would reject
  /// it too.  Leaving into the rectangle's quadrant is not enough.  In the
  /// corner's frame the segment runs from the origin to (ax, ay), positive
  /// into the rectangle [0, w] x [0, h], whose shrunk interior is
  /// [e, w - e] x [e, h - e].  It crosses that interior iff every entry
  /// parameter (e / ax, e / ay) lies below every exit parameter
  /// ((w - e) / ax, (h - e) / ay, 1).  The checks are those six
  /// inequalities cross-multiplied, each with a margin m in coordinate
  /// units: Liang-Barsky's terms are differences of coordinates, so their
  /// rounding stays a few ulps of the largest coordinate, and m is 1e-12
  /// of it.  A segment that leaves away from the quadrant returns after
  /// one branch.
  bool DirectionEntersCorner(VertexId v, geom::Vec2 away) const {
    const CornerInfo& ci = corner_[v];
    const double ax = away.x * ci.inward.x;
    const double ay = away.y * ci.inward.y;
    constexpr double e = geom::kEpsInterior;
    if (!(ax > e && ay > e)) return false;
    const double m = ci.margin + 1e-12 * (ax + ay);
    const double em = e + m;
    const double ix = ci.inner.x - m;  // w - e - m
    const double iy = ci.inner.y - m;
    return std::min({ax - em, ay - em, ix - em, iy - em, ay * ix - ax * em,
                     ax * iy - ay * em}) > 0.0;
  }

  void RecomputeAdjacency(VertexId v);
  /// Appends the reciprocal edge u -> v to u's list.
  void PushReciprocal(VertexId u, VertexId v, double length);
  VertexId AddVertexInternal(geom::Vec2 p);

  friend class DijkstraScan;  // uses DirectionEntersCorner when seeding

  std::vector<geom::Vec2> vertices_;
  std::vector<std::vector<VisEdge>> adj_;
  /// Covers vertices_[v] and every vertex in adj_[v] (a superset once
  /// edges are erased): the prune skips lists whose box misses the rect.
  std::vector<geom::Rect> reach_;
  std::vector<CornerInfo> corner_;
  std::vector<bool> alive_;
  std::vector<VertexId> free_slots_;  // recycled fixed-vertex slots
  uint64_t epoch_ = 1;
  GridIndex vertex_grid_;
  ObstacleSet obstacles_;
  std::unordered_set<rtree::ObjectId> obstacle_ids_;
  uint64_t duplicate_obstacle_skips_ = 0;
  QueryStats* stats_;
};

/// Scopes one query's fixed vertices on a (possibly shard-shared) graph:
/// every vertex added through the session is removed when it ends, leaving
/// only the accumulated obstacle graph behind.
class QuerySession {
 public:
  explicit QuerySession(VisGraph* vg) : vg_(vg) {}
  ~QuerySession() {
    if (!added_.empty()) vg_->RemoveFixedVertices(added_);
  }

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  VertexId AddFixedVertex(geom::Vec2 p) {
    added_.push_back(vg_->AddFixedVertex(p));
    return added_.back();
  }

  VisGraph* graph() const { return vg_; }

 private:
  VisGraph* vg_;
  std::vector<VertexId> added_;
};

}  // namespace vis
}  // namespace conn

#endif  // CONN_VIS_VIS_GRAPH_H_
