#include "core/odist.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "vis/dijkstra.h"

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool TreeObstacleSource::NextObstacleWithin(double bound,
                                            rtree::DataObject* out,
                                            double* dist) {
  // Note: with bound == +inf (IOR's full-drain fallback) the peek test
  // cannot reject an exhausted stream (inf > inf is false), so Next() must
  // be allowed to report exhaustion.
  if (it_.PeekDist() > bound) return false;
  if (!it_.Next(out, dist)) return false;
  CONN_CHECK_MSG(out->kind == rtree::ObjectKind::kObstacle,
                 "obstacle tree contains a non-obstacle entry");
  return true;
}

bool UnifiedStream::NextObstacleWithin(double bound, rtree::DataObject* out,
                                       double* dist) {
  while (it_.PeekDist() <= bound) {
    rtree::DataObject obj;
    double d = 0.0;
    if (!it_.Next(&obj, &d)) return false;  // exhausted (bound may be +inf)
    retrieved_up_to_ = std::max(retrieved_up_to_, d);
    if (obj.kind == rtree::ObjectKind::kObstacle) {
      *out = obj;
      *dist = d;
      return true;
    }
    pending_points_.emplace_back(obj, d);
  }
  return false;
}

StreamOutcome UnifiedStream::NextPointWithin(double bound,
                                             rtree::DataObject* out,
                                             double* dist) {
  // Pending points were popped in ascending order, so the front is the
  // global minimum over all unprocessed points.
  if (!pending_points_.empty()) {
    if (pending_points_.front().second > bound) {
      return StreamOutcome::kBoundReached;
    }
    *out = pending_points_.front().first;
    *dist = pending_points_.front().second;
    pending_points_.pop_front();
    return StreamOutcome::kYielded;
  }
  while (true) {
    const double peek = it_.PeekDist();
    if (peek == kInf) {
      return StreamOutcome::kExhausted;
    }
    if (peek > bound) return StreamOutcome::kBoundReached;
    rtree::DataObject obj;
    double d = 0.0;
    CONN_CHECK(it_.Next(&obj, &d));  // finite peek => an object exists
    retrieved_up_to_ = std::max(retrieved_up_to_, d);
    if (obj.kind == rtree::ObjectKind::kPoint) {
      *out = obj;
      *dist = d;
      return StreamOutcome::kYielded;
    }
    // Paper semantics for the unified traversal: a popped obstacle is
    // inserted into the local visibility graph right away.
    vg_->AddObstacle(obj.rect, obj.id);
  }
}

bool CoverageGuardedSource::NextObstacleWithin(double bound,
                                               rtree::DataObject* out,
                                               double* dist) {
  if (log_ != nullptr) {
    if (bound != memo_bound_) {
      memo_bound_ = bound;
      int64_t owner = -1;
      memo_covered_ = log_->Covers(query_, bound, &owner);
      if (memo_covered_ && stats_ != nullptr && owner != client_tag_) {
        ++stats_->frontier_shares;
      }
    }
    // Covered: every obstacle within the bound is already in the graph, so
    // no *new* obstacle remains within it.  The inner cursor stays put.
    if (memo_covered_) return false;
  }
  if (!inner_->NextObstacleWithin(bound, out, dist)) return false;
  ++yields_;
  return true;
}

double IncrementalObstacleRetrieval(
    ObstacleSource* source, vis::VisGraph* vg,
    const std::vector<vis::VertexId>& targets, geom::Vec2 p,
    double* retrieved_up_to, QueryStats* stats,
    std::unique_ptr<vis::DijkstraScan>* out_scan, vis::ScanArena* arena,
    bool warm_restarts) {
  CONN_CHECK_MSG(!targets.empty(), "IOR requires at least one target vertex");
  // Local shortest paths on the current graph (Algorithm 1 line 2).
  auto make_scan = [&] {
    return arena != nullptr
               ? std::make_unique<vis::DijkstraScan>(vg, p, arena)
               : std::make_unique<vis::DijkstraScan>(vg, p);
  };
  auto scan = make_scan();
  if (stats != nullptr) ++stats->dijkstra_runs;
  double d = 0.0;
  while (true) {
    const size_t settled_before = scan->SettledCount();
    d = scan->SettleTargets(targets);
    if (stats != nullptr) {
      stats->dijkstra_settled += scan->SettledCount() - settled_before;
    }

    // Lemma 3: once every obstacle with mindist <= d is present and the
    // recomputed paths do not lengthen, the paths are the true shortest
    // paths and the search range SR(p, q) (Theorem 2) is covered.
    if (d <= *retrieved_up_to) break;

    bool fetched = false;
    rtree::DataObject obstacle;
    double obstacle_dist = 0.0;
    while (source->NextObstacleWithin(d, &obstacle, &obstacle_dist)) {
      // On a shard-shared graph the obstacle may already be present
      // (AddObstacle returns false); only a real insertion invalidates the
      // scan and warrants another Dijkstra iteration.
      if (vg->AddObstacle(obstacle.rect, obstacle.id)) fetched = true;
    }
    // All obstacles with mindist <= d are now local (the source yields them
    // in ascending order and refused only those beyond d).
    *retrieved_up_to = std::max(*retrieved_up_to, d);
    // Graph unchanged => d is final and the scan is still valid.
    if (!fetched) break;

    if (warm_restarts) {
      // Lemma-3 restart on the grown graph: roll back only the settlement
      // suffix the new obstacles can reach, keep the provably unaffected
      // prefix.
      scan->Revalidate();
      if (stats != nullptr) ++stats->scan_warm_restarts;
    } else {
      // Reference path: recompute from scratch (destroy first — the arena
      // admits one live scan at a time).
      scan.reset();
      scan = make_scan();
      if (stats != nullptr) ++stats->dijkstra_runs;
    }
  }
  if (out_scan != nullptr) *out_scan = std::move(scan);
  return d;
}

}  // namespace core
}  // namespace conn
