#include "core/conn.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "core/cpl.h"
#include "core/engine_internal.h"
#include "core/odist.h"
#include "core/workspace.h"
#include "vis/dijkstra.h"

namespace conn {
namespace core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Degenerate zero-length query: the ONN point query with k = 1 (no
/// interval computation); the control point is the query point itself.
ConnResult DegenerateConn(const geom::Segment& q, internal::QueryScope* scope,
                          const ConnOptions& opts) {
  ConnResult result;
  result.query = q;
  for (const OnnNeighbor& n : internal::NearestByOdist(scope, 1, opts)) {
    result.tuples.push_back(
        ConnTuple{n.pid, q.a, n.odist, geom::Interval(0.0, 0.0)});
  }
  return result;
}

/// Main loop (Algorithm 4) for both tree configurations.
ConnResult RunConn(const geom::Segment& q, internal::QueryScope* scope,
                   const ConnOptions& opts) {
  QueryStats* stats = scope->stats();
  vis::VisGraph* vg = scope->graph();
  ConnResult result;
  result.query = q;
  const geom::SegmentFrame frame(q);
  const geom::IntervalSet reachable = internal::ReachablePieces(
      scope->Blocked(), q.Length(), &result.unreachable);

  vis::QuerySession session(vg);
  const std::vector<vis::VertexId> targets =
      internal::AddTargetVertices(&session, reachable, q);

  ResultList rl(reachable);
  VisibleRegionCache vr_cache;
  double retrieved = 0.0;
  rtree::DataObject obj;
  double dist = 0.0;
  while (true) {
    const double bound = opts.use_rlmax_terminate ? rl.RlMax(frame) : kInf;
    const StreamOutcome outcome = scope->NextPointWithin(bound, &obj, &dist);
    if (outcome != StreamOutcome::kYielded) {
      // Count Lemma 2 only when points beyond RLMAX remain — a drained
      // stream stopping the loop is exhaustion, not pruning.
      if (outcome == StreamOutcome::kBoundReached) {
        ++stats->lemma2_terminations;
      }
      break;
    }
    ++stats->points_evaluated;
    // Obstacles the unified point stream already loaded count as retrieved,
    // so IOR skips a wave they cover without touching the tree.
    retrieved = std::max(retrieved, scope->points_retrieved_up_to());
    const geom::Vec2 p = obj.AsPoint();
    std::unique_ptr<vis::DijkstraScan> scan;
    IncrementalObstacleRetrieval(scope->obstacles(), vg, targets, p,
                                 &retrieved, stats, &scan, scope->arena(),
                                 opts.use_warm_scan_restarts);
    const ControlPointList cpl = ComputeControlPointList(
        vg, scan.get(), p, frame, reachable, opts, stats, &vr_cache);
    rl.Update(static_cast<int64_t>(obj.id), cpl, frame, opts, stats);
  }
  stats->vr_cache_evictions += vr_cache.evictions();
  for (const RlEntry& e : rl.entries()) {
    result.tuples.push_back(ConnTuple{e.pid, e.cp, e.offset, e.range});
  }
  return result;
}

}  // namespace

double ConnResult::OdistAt(double t) const {
  const geom::SegmentFrame frame(query);
  for (const ConnTuple& tup : tuples) {
    if (tup.range.ContainsApprox(t)) {
      if (tup.point_id == kNoPoint) return kInf;
      return geom::DistanceCurve::FromControlPoint(frame, tup.control_point,
                                                   tup.offset)
          .Eval(t);
    }
  }
  return kInf;
}

int64_t ConnResult::OnnAt(double t) const {
  for (const ConnTuple& tup : tuples) {
    if (tup.range.ContainsApprox(t)) return tup.point_id;
  }
  return kNoPoint;
}

std::vector<std::pair<int64_t, geom::Interval>> ConnResult::MergedByPoint()
    const {
  std::vector<std::pair<int64_t, geom::Interval>> merged;
  for (const ConnTuple& tup : tuples) {
    if (!merged.empty() && merged.back().first == tup.point_id &&
        std::abs(merged.back().second.hi - tup.range.lo) <=
            geom::kEpsParam) {
      merged.back().second.hi = tup.range.hi;
    } else {
      merged.emplace_back(tup.point_id, tup.range);
    }
  }
  return merged;
}

std::vector<double> ConnResult::SplitParams() const {
  std::vector<double> splits;
  const auto merged = MergedByPoint();
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (std::abs(merged[i].second.hi - merged[i + 1].second.lo) <=
        geom::kEpsParam) {
      splits.push_back(merged[i].second.hi);
    }
  }
  return splits;
}

ConnResult ConnQuery(const rtree::RStarTree& data_tree,
                     const rtree::RStarTree& obstacle_tree,
                     const geom::Segment& q, const ConnOptions& opts,
                     QueryWorkspace* workspace) {
  internal::QueryScope scope(data_tree, obstacle_tree, q, workspace);
  ConnResult result = q.Length() <= 0.0 ? DegenerateConn(q, &scope, opts)
                                        : RunConn(q, &scope, opts);
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
