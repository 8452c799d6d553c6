// Shared plumbing of the CONN-family query engines (conn.cc, coknn.cc,
// cnn.cc) and the obstructed point queries (onn.cc, obstructed_range.cc,
// obstructed_join.cc).  Internal header — not part of the public API.
//
// The segment queries share one copy of Algorithm 4's main loop
// (RunMainLoop); CONN and COkNN run it through QueryScope::RunAlgorithm4,
// whose per-point step is IOR + CPLC, and CNN plugs in its trivial control
// point list.

#ifndef CONN_CORE_ENGINE_INTERNAL_H_
#define CONN_CORE_ENGINE_INTERNAL_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "core/cpl.h"
#include "core/odist.h"
#include "core/onn.h"
#include "core/options.h"
#include "core/result_list.h"
#include "core/workspace.h"
#include "geom/interval_set.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "rtree/best_first.h"
#include "rtree/rstar_tree.h"
#include "storage/pager.h"
#include "vis/settlement_log.h"
#include "vis/vis_graph.h"

namespace conn {
namespace core {
namespace internal {

/// Workspace rectangle covering the trees' contents and \p cover (used as
/// the local obstacle grid's domain).  Either tree may be null; a tree
/// passed twice (the 1-tree configuration) is read once, since Bounds()
/// fetches its root page.
inline geom::Rect WorkspaceBounds(const rtree::RStarTree* a,
                                  const rtree::RStarTree* b,
                                  const geom::Rect& cover) {
  geom::Rect r = cover;
  if (a != nullptr) r = r.ExpandedToCover(a->Bounds());
  if (b != nullptr && b != a) r = r.ExpandedToCover(b->Bounds());
  // Guard against degenerate domains (single point workloads).
  const double pad = 1.0 + 1e-3 * std::max(r.Width(), r.Height());
  return geom::Rect({r.lo.x - pad, r.lo.y - pad}, {r.hi.x + pad, r.hi.y + pad});
}

/// Arc-length intervals of \p q lying strictly inside obstacle interiors
/// indexed by \p tree (non-obstacle entries are ignored, so the unified
/// tree of the 1-tree configuration works too).
inline geom::IntervalSet BlockedIntervals(const rtree::RStarTree& tree,
                                          const geom::Segment& q) {
  std::vector<rtree::DataObject> hits;
  CONN_CHECK(tree.SegmentIntersectionQuery(q, &hits).ok());
  std::vector<geom::Interval> blocked;
  for (const rtree::DataObject& obj : hits) {
    if (obj.kind != rtree::ObjectKind::kObstacle) continue;
    const geom::Interval span = geom::InteriorSpan(q, obj.rect);
    if (!span.IsEmpty()) blocked.push_back(span);
  }
  return geom::IntervalSet(std::move(blocked));
}

/// Splits [0, len] into reachable pieces and the blocked/sliver complement.
/// Pieces not meaningfully longer than the parameter tolerance are moved to
/// the unreachable side: a sliver piece could never be claimed robustly and
/// would pin the RLMAX termination bound at +infinity (see kEpsSliver).
inline geom::IntervalSet ReachablePieces(const geom::IntervalSet& blocked,
                                         double length,
                                         geom::IntervalSet* unreachable) {
  const geom::IntervalSet raw =
      blocked.ComplementWithin(geom::Interval(0.0, length));
  std::vector<geom::Interval> keep;
  std::vector<geom::Interval> dropped = blocked.intervals();
  for (const geom::Interval& piece : raw.intervals()) {
    if (piece.Length() <= geom::kEpsSliver) {
      dropped.push_back(piece);
    } else {
      keep.push_back(piece);
    }
  }
  *unreachable = geom::IntervalSet(std::move(dropped));
  return geom::IntervalSet(std::move(keep));
}

/// Adds a fixed graph vertex at both endpoints of every reachable piece of
/// the query segment; returns the vertex ids (the IOR targets), in pairs:
/// the ids at 2i and 2i + 1 bound piece i, which IOR's admission ellipses
/// read (see IncrementalObstacleRetrieval).  The vertices are scoped to
/// \p session: they disappear with it, leaving a shard-shared graph's
/// obstacle state intact for the next query.
inline std::vector<vis::VertexId> AddTargetVertices(
    vis::QuerySession* session, const geom::IntervalSet& reachable,
    const geom::Segment& q) {
  std::vector<vis::VertexId> targets;
  for (const geom::Interval& piece : reachable.intervals()) {
    targets.push_back(session->AddFixedVertex(q.At(piece.lo)));
    targets.push_back(session->AddFixedVertex(q.At(piece.hi)));
  }
  return targets;
}

/// Restores a (possibly shard-shared) graph's stats sink on scope exit,
/// after pointing it at the running query's counters.
class GraphStatsScope {
 public:
  GraphStatsScope(vis::VisGraph* vg, QueryStats* stats)
      : vg_(vg), saved_(vg->stats()) {
    vg_->set_stats(stats);
  }
  ~GraphStatsScope() { vg_->set_stats(saved_); }

  GraphStatsScope(const GraphStatsScope&) = delete;
  GraphStatsScope& operator=(const GraphStatsScope&) = delete;

 private:
  vis::VisGraph* vg_;
  QueryStats* saved_;
};

/// The one visibility graph a query runs against: the shared workspace's
/// when one is supplied (batch execution), otherwise a query-local graph
/// built over the trees + q.  Either way the graph's stats sink points at
/// \p stats for this scope.  Every public query entry point opens with one
/// of these so the resolution logic cannot drift between engines.  The
/// scan arena resolves the same way: the workspace's pooled arena when
/// shared, a query-local one otherwise.
class ScopedQueryGraph {
 public:
  ScopedQueryGraph(QueryWorkspace* workspace, const rtree::RStarTree* a,
                   const rtree::RStarTree* b, const geom::Segment& q,
                   QueryStats* stats)
      : own_(workspace == nullptr
                 ? std::optional<vis::VisGraph>(
                       std::in_place, WorkspaceBounds(a, b, q.Bounds()), stats)
                 : std::nullopt),
        own_arena_(workspace == nullptr
                       ? std::optional<vis::ScanArena>(std::in_place)
                       : std::nullopt),
        vg_(workspace != nullptr ? workspace->graph() : &*own_),
        arena_(workspace != nullptr ? workspace->scan_arena() : &*own_arena_),
        stats_scope_(vg_, stats) {}

  ScopedQueryGraph(const ScopedQueryGraph&) = delete;
  ScopedQueryGraph& operator=(const ScopedQueryGraph&) = delete;

  vis::VisGraph* get() { return vg_; }

  /// Pooled scan state for every DijkstraScan of this query.
  vis::ScanArena* arena() { return arena_; }

 private:
  std::optional<vis::VisGraph> own_;
  std::optional<vis::ScanArena> own_arena_;
  vis::VisGraph* vg_;
  vis::ScanArena* arena_;
  GraphStatsScope stats_scope_;
};

/// A query's I/O on one pager: the faults and hits of the calling thread's
/// Fetch()es since construction (a query runs wholly on one thread, so
/// these are its own even while other threads share the pager), and the
/// process-wide readahead counters' deltas.  Construct and destroy it on
/// the query's thread.
class PagerDelta {
 public:
  explicit PagerDelta(const storage::Pager& pager)
      : pager_(pager),
        fetches_(pager),
        prefetch_issued0_(pager.prefetch_issued()),
        prefetch_hits0_(pager.prefetch_hits()),
        prefetch_wasted0_(pager.prefetch_wasted()) {}

  uint64_t faults() const { return fetches_.faults(); }
  uint64_t hits() const { return fetches_.hits(); }
  uint64_t prefetch_issued() const {
    return pager_.prefetch_issued() - prefetch_issued0_;
  }
  uint64_t prefetch_hits() const {
    return pager_.prefetch_hits() - prefetch_hits0_;
  }
  uint64_t prefetch_wasted() const {
    return pager_.prefetch_wasted() - prefetch_wasted0_;
  }

 private:
  const storage::Pager& pager_;
  storage::ThreadFetchCounter fetches_;
  uint64_t prefetch_issued0_;
  uint64_t prefetch_hits0_;
  uint64_t prefetch_wasted0_;
};

/// Folds a delta's readahead counters into \p stats.  Additive, so the
/// deltas of several trees (data + obstacle, or join operands) stack.
inline void AddPrefetchStats(const PagerDelta& io, QueryStats* stats) {
  stats->prefetch_issued += io.prefetch_issued();
  stats->prefetch_hits += io.prefetch_hits();
  stats->prefetch_wasted += io.prefetch_wasted();
}

/// Pops the next point of the best-first stream \p points if its mindist
/// to the query lies within \p bound, which may be +infinity (see
/// StreamOutcome).  A finite peek guarantees an object, so exhaustion and
/// the Lemma-2 stop are cleanly separable.
inline StreamOutcome PopPointWithin(rtree::BestFirstIterator* points,
                                    double bound, rtree::DataObject* out,
                                    double* dist) {
  const double peek = points->PeekDist();
  if (peek == std::numeric_limits<double>::infinity()) {
    return StreamOutcome::kExhausted;
  }
  if (peek > bound) return StreamOutcome::kBoundReached;
  CONN_CHECK(points->Next(out, dist));
  CONN_CHECK_MSG(out->kind == rtree::ObjectKind::kPoint,
                 "data tree contains a non-point entry");
  return StreamOutcome::kYielded;
}

/// Algorithm 4's main loop, the one copy CONN, COkNN and CNN run.  Pops data
/// points in ascending mindist(p, q) order through \p next_point while they
/// lie within the Lemma 2 bound RLMAX of \p rl (+infinity with
/// use_rlmax_terminate off), turns each into its control point list with
/// \p control_points, and merges that into \p rl.  A stop with points left
/// beyond the bound counts one lemma2_terminations; a drained stream counts
/// none.
///
/// A segment of positive length with no \p reachable piece lies wholly
/// inside obstacles: the loop does not run, since there is nothing to
/// answer and IOR would have no target.  A zero-length segment (which
/// COkNN and CNN pass through) keeps the loop: its empty result list has
/// RLMAX 0, so the loop stops at the first point off q.  perfbench's
/// traced replay copies that behaviour and checks the counters against it.
template <typename List, typename NextPoint, typename ControlPoints>
void RunMainLoop(const geom::IntervalSet& reachable,
                 const geom::SegmentFrame& frame, const ConnOptions& opts,
                 QueryStats* stats, List* rl, NextPoint next_point,
                 ControlPoints control_points) {
  if (reachable.IsEmpty() && frame.length() > 0.0) return;
  rtree::DataObject obj;
  double dist = 0.0;
  while (true) {
    const double bound = opts.use_rlmax_terminate
                             ? rl->RlMax(frame)
                             : std::numeric_limits<double>::infinity();
    const StreamOutcome outcome = next_point(bound, &obj, &dist);
    if (outcome == StreamOutcome::kBoundReached) {
      ++stats->lemma2_terminations;
    }
    if (outcome != StreamOutcome::kYielded) return;
    ++stats->points_evaluated;
    rl->Update(static_cast<int64_t>(obj.id), control_points(obj.AsPoint()),
               frame, stats);
  }
}

/// Differential-repair wiring of one COkNN query: the carried workspace's
/// settlement log (null = repair off, always for CONN) and the owner tag
/// its published capsule carries.
struct RepairHooks {
  vis::SettlementLog* log = nullptr;
  int64_t client_tag = -1;
};

/// Set-up and stats finish of one CONN, COkNN, ONN or range query (the
/// point queries run on the zero-length segment [p, p]).  Passing the same
/// tree as data and obstacle tree selects the unified traversal of Section
/// 4.5: one UnifiedStream feeds IOR the obstacles (and CONN and COkNN
/// their data points), and all I/O is charged to the data tree.
/// Otherwise obstacles stream from their own tree and the data tree must
/// hold points only.
///
/// Page reads keep the order the fig12 buffered counters were recorded
/// under: the constructor snapshots the pagers and resolves the graph
/// (reading the trees' roots for a fresh graph's domain); the sources
/// read nothing until Blocked() and the main loop pull from them.
class QueryScope {
 public:
  QueryScope(const rtree::RStarTree& data_tree,
             const rtree::RStarTree& obstacle_tree, const geom::Segment& q,
             QueryWorkspace* workspace)
      : one_tree_(&data_tree == &obstacle_tree),
        data_tree_(data_tree),
        obstacle_tree_(obstacle_tree),
        q_(q),
        data_io_(data_tree.pager()),
        obstacle_io_(obstacle_tree.pager()),
        graph_(workspace, &data_tree, &obstacle_tree, q, &stats_) {
    if (one_tree_) {
      unified_.emplace(data_tree, q, graph_.get());
    } else {
      tree_obstacles_.emplace(obstacle_tree, q);
      points_.emplace(data_tree, q);
    }
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  QueryStats* stats() { return &stats_; }
  vis::VisGraph* graph() { return graph_.get(); }
  vis::ScanArena* arena() { return graph_.arena(); }
  const rtree::RStarTree& data_tree() const { return data_tree_; }
  const geom::Segment& query() const { return q_; }
  bool one_tree() const { return one_tree_; }

  /// The stream IOR draws obstacles from.
  ObstacleSource* obstacles() {
    if (one_tree_) return &*unified_;
    return &*tree_obstacles_;
  }

  /// Parts of q inside obstacle interiors (see BlockedIntervals).
  geom::IntervalSet Blocked() const {
    return BlockedIntervals(obstacle_tree_, q_);
  }

  /// Algorithm 4 for CONN and COkNN: the main loop over \p rl, a result
  /// list built on \p reachable (this query's reachable pieces), with the
  /// obstructed per-point step.  IOR completes the graph up to the pieces'
  /// endpoint vertices, then CPLC computes the control point list over the
  /// pieces, sharing one visible-region cache across points.  Obstacles the
  /// unified point stream already loaded count as retrieved, so IOR skips a
  /// wave they cover without touching the tree.  IOR parks the obstacles it
  /// streams but does not admit in the query's source, so a later point
  /// re-tests them.
  ///
  /// With \p repair.log set, IOR waves a settlement-log capsule covers skip
  /// the obstacle stream, each point counts as carried or rescored, and
  /// the query's final retrieval radius is published back to the log.
  template <typename List>
  void RunAlgorithm4(const geom::IntervalSet& reachable,
                     const ConnOptions& opts, const RepairHooks& repair,
                     List* rl) {
    vis::VisGraph* vg = graph();
    const geom::SegmentFrame frame(q_);
    vis::QuerySession session(vg);
    const std::vector<vis::VertexId> targets =
        AddTargetVertices(&session, reachable, q_);
    // Repair mode: retrieval waves already proven covered by the
    // workspace's settlement log skip the obstacle stream (the guard
    // answers "nothing new within the bound", which the capsule makes
    // literally true).  The capsule this query publishes claims the graph
    // holds every obstacle within its radius, so IOR admits everything it
    // streams.
    CoverageGuardedSource guarded(obstacles(), repair.log, q_,
                                  repair.client_tag, &stats_);
    ObstacleSource* source = obstacles();
    if (repair.log != nullptr) {
      source = &guarded;
      guarded.AdmitAll();
      stats_.repairs_applied = 1;
    }
    VisibleRegionCache vr_cache;
    double retrieved = 0.0;
    auto next_point = [&](double bound, rtree::DataObject* out, double* dist) {
      if (one_tree_) return unified_->NextPointWithin(bound, out, dist);
      return PopPointWithin(&*points_, bound, out, dist);
    };
    auto control_points = [&](geom::Vec2 p) {
      if (one_tree_) {
        retrieved = std::max(retrieved, unified_->retrieved_up_to());
      }
      std::unique_ptr<vis::DijkstraScan> scan;
      const uint64_t yields_before = guarded.yields();
      IncrementalObstacleRetrieval(source, vg, targets, p, &retrieved, &stats_,
                                   &scan, arena(), opts.use_warm_scan_restarts);
      if (repair.log != nullptr) {
        // Carried vs re-scored at retrieval granularity: a point whose whole
        // search range was served by carried coverage (or by earlier waves
        // of this query) never touched the tree; a boundary point streamed.
        if (guarded.yields() != yields_before) {
          ++stats_.tuples_rescored;
        } else {
          ++stats_.tuples_carried;
        }
      }
      return ComputeControlPointList(vg, scan.get(), p, frame, reachable, opts,
                                     &stats_, &vr_cache);
    };
    RunMainLoop(reachable, frame, opts, &stats_, rl, next_point,
                control_points);
    stats_.vr_cache_evictions += vr_cache.evictions();
    // Publish this query's proven coverage: after the loop, every obstacle
    // with mindist(o, q) <= retrieved is in the graph (streamed waves by
    // the ascending source and AdmitAll, covered waves by their proving
    // capsule).  The next repair on this workspace reads it — same client
    // or a shard sibling.
    if (repair.log != nullptr) {
      repair.log->Publish(q_, retrieved, repair.client_tag);
    }
  }

  /// Folds the graph size, the trees' I/O deltas and the elapsed time into
  /// the query's stats and returns them.
  QueryStats Finish() {
    stats_.vis_graph_vertices = graph_.get()->VertexCount();
    stats_.data_page_reads = data_io_.faults();
    stats_.buffer_hits = data_io_.hits();
    AddPrefetchStats(data_io_, &stats_);
    if (!one_tree_) {
      stats_.obstacle_page_reads = obstacle_io_.faults();
      stats_.buffer_hits += obstacle_io_.hits();
      AddPrefetchStats(obstacle_io_, &stats_);
    }
    stats_.cpu_seconds = timer_.ElapsedSeconds();
    return stats_;
  }

 private:
  Timer timer_;
  QueryStats stats_;
  const bool one_tree_;
  const rtree::RStarTree& data_tree_;
  const rtree::RStarTree& obstacle_tree_;
  const geom::Segment q_;
  PagerDelta data_io_;
  PagerDelta obstacle_io_;
  ScopedQueryGraph graph_;
  std::optional<TreeObstacleSource> tree_obstacles_;  ///< two trees only
  std::optional<rtree::BestFirstIterator> points_;    ///< two trees only
  std::optional<UnifiedStream> unified_;              ///< one tree only
};

/// IOR (Algorithm 1) anchored at one fixed vertex, added before any
/// obstacle: obstructed distances from the anchor to successive points,
/// with the graph's obstacles, the retrieval radius and the source's
/// parked obstacles carried across calls.  The one anchor target a gives
/// the one admission ellipse with foci p and a and bound d.  Every distance the point queries and the joins
/// compute comes from one of these.
struct AnchoredIor {
  vis::VisGraph* vg;
  std::vector<vis::VertexId> anchor;  ///< the one IOR target
  ObstacleSource* obstacles;
  vis::ScanArena* arena;
  QueryStats* stats;
  bool warm_restarts;  ///< ConnOptions::use_warm_scan_restarts
  double retrieved = 0.0;

  double Odist(geom::Vec2 p) {
    return IncrementalObstacleRetrieval(obstacles, vg, anchor, p, &retrieved,
                                        stats, /*out_scan=*/nullptr, arena,
                                        warm_restarts);
  }
};

/// The point stream of the point queries: visits the data points of
/// \p scope's query [a, a] by ascending mindist while \p within(mindist)
/// holds, passing \p visit each with its obstructed distance to a.  The
/// points come from their own iterator; in the 1-tree configuration it
/// skips obstacles, which reach the graph through the unified stream.
template <typename Within, typename Visit>
void ForEachPointByOdist(QueryScope* scope, const ConnOptions& opts,
                         Within within, Visit visit) {
  vis::QuerySession session(scope->graph());
  AnchoredIor ior{scope->graph(), {session.AddFixedVertex(scope->query().a)},
                  scope->obstacles(), scope->arena(), scope->stats(),
                  opts.use_warm_scan_restarts};
  rtree::BestFirstIterator points(scope->data_tree(), scope->query());
  rtree::DataObject obj;
  double dist = 0.0;
  while (within(points.PeekDist())) {
    if (!points.Next(&obj, &dist)) break;
    if (obj.kind != rtree::ObjectKind::kPoint) {
      CONN_CHECK_MSG(scope->one_tree(), "data tree contains a non-point entry");
      continue;
    }
    ++scope->stats()->points_evaluated;
    visit(OnnNeighbor{static_cast<int64_t>(obj.id), ior.Odist(obj.AsPoint())});
  }
}

/// The k items of the stream \p for_each(within, visit) (the point stream
/// or a join's pair stream) nearest by obstructed distance, sorted by
/// \p less.  The k-th best distance strictly cuts the stream and gates
/// admission, so unreachable (infinite) items never enter.
template <typename T, typename ForEach>
std::vector<T> KNearest(size_t k, bool (*less)(const T&, const T&),
                        ForEach for_each) {
  std::vector<T> best;  // sorted; k is small
  auto kth_bound = [&]() {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.back().odist;
  };
  for_each([&](double mindist) { return mindist < kth_bound(); },
           [&](const T& item) {
             if (item.odist >= kth_bound()) return;
             best.push_back(item);
             std::sort(best.begin(), best.end(), less);
             if (best.size() > k) best.pop_back();
           });
  return best;
}

/// Orders point-query answers nearest first, ties by id.
inline bool NearerFirst(const OnnNeighbor& a, const OnnNeighbor& b) {
  if (a.odist != b.odist) return a.odist < b.odist;
  return a.pid < b.pid;
}

/// The k data points nearest to the anchor of \p scope's zero-length
/// query by obstructed distance: ONN, and the zero-length CONN (k = 1).
inline std::vector<OnnNeighbor> NearestByOdist(QueryScope* scope, size_t k,
                                               const ConnOptions& opts) {
  return KNearest<OnnNeighbor>(k, NearerFirst, [&](auto within, auto visit) {
    ForEachPointByOdist(scope, opts, within, visit);
  });
}

/// CONN's (and CNN's) answer tuples from the final result list.
inline std::vector<ConnTuple> ConnTuples(const ResultList& rl) {
  std::vector<ConnTuple> tuples;
  for (const CplEntry& e : rl.entries()) {
    tuples.push_back(ConnTuple{e.pid, e.cp, e.offset, e.range});
  }
  return tuples;
}

}  // namespace internal
}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_ENGINE_INTERNAL_H_
