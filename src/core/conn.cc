#include "core/conn.h"

#include <cmath>
#include <limits>

#include "core/engine_internal.h"

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
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
  ConnResult result;
  result.query = q;
  if (q.Length() <= 0.0) {
    // Degenerate zero-length query: the ONN point query with k = 1 (no
    // interval computation); the control point is the query point itself.
    for (const OnnNeighbor& n : internal::NearestByOdist(&scope, 1)) {
      result.tuples.push_back(
          ConnTuple{n.pid, q.a, n.odist, geom::Interval(0.0, 0.0)});
    }
  } else {
    const geom::IntervalSet reachable = internal::ReachablePieces(
        scope.Blocked(), q.Length(), &result.unreachable);
    ResultList rl(reachable, opts.use_lemma1_prune);
    scope.RunAlgorithm4(reachable, opts, &rl);
    result.tuples = internal::ConnTuples(rl);
  }
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
