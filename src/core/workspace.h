// Reusable obstacle workspace shared by several queries (the batch
// executor's per-shard state).
//
// Rebuilding the local visibility graph per query — the paper's
// single-query model — repeats the dominant cost of COkNN processing for
// every query: retrieving the same obstacles from the R-tree and paying
// their corner-adjacency insertion again.  A QueryWorkspace keeps one
// VisGraph alive across a whole shard of spatially close queries: obstacle
// insertions deduplicate by id (VisGraph::AddObstacle), while each query's
// fixed target vertices are scoped to a vis::QuerySession and vanish when
// the query completes.  Correctness is unaffected: the shared graph holds a
// superset of each query's Theorem-2 search-range obstacle set, and extra
// real obstacles can only confirm (never shorten) obstructed distances —
// the same argument that makes the 1-tree configuration's eager obstacle
// insertion exact.

#ifndef CONN_CORE_WORKSPACE_H_
#define CONN_CORE_WORKSPACE_H_

#include "geom/box.h"
#include "rtree/rstar_tree.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace core {

/// Persistent cross-query obstacle state: one visibility graph whose
/// obstacles accumulate for the workspace's lifetime.
class QueryWorkspace {
 public:
  /// Builds a workspace whose grid domain covers both trees (either may be
  /// null) and \p query_cover — the bounding rectangle of every query
  /// segment that will run against it.
  QueryWorkspace(const rtree::RStarTree* data_tree,
                 const rtree::RStarTree* obstacle_tree,
                 const geom::Rect& query_cover);

  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;

  vis::VisGraph* graph() { return &vg_; }

  /// The pooled Dijkstra scan state every query of this workspace runs on:
  /// epoch-stamped arrays sized once for the shared graph, so consecutive
  /// scans (one per data point per query) start in O(1) instead of paying
  /// a per-scan O(V) initialization.
  vis::ScanArena* scan_arena() { return &scan_arena_; }

  /// Obstacle insertions skipped because a sibling query already fetched
  /// the obstacle — the retrieval work saved by sharing.
  uint64_t ObstacleReuseHits() const { return vg_.DuplicateObstacleSkips(); }

  /// Unique obstacles accumulated so far.
  size_t ObstacleCount() const { return vg_.ObstacleCount(); }

  /// The grid domain the graph was built over (tree bounds + query cover).
  const geom::Rect& domain() const { return domain_; }

  /// True iff \p cover lies inside the built domain — the tick loop's
  /// carry-over check: a workspace stays valid while the (moving) queries
  /// it serves remain inside the domain it was sized for.
  bool Covers(const geom::Rect& cover) const { return domain_.Contains(cover); }

 private:
  geom::Rect domain_;
  vis::VisGraph vg_;
  vis::ScanArena scan_arena_;
};

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_WORKSPACE_H_
