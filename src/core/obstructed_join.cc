#include "core/obstructed_join.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/timer.h"
#include "core/engine_internal.h"
#include "core/odist.h"
#include "core/onn.h"
#include "rtree/pair_join.h"

namespace conn {
namespace core {

namespace {

/// One graph per left object a, around [a, a]: its obstacle set grows
/// across all right partners of a (IOR reuse).
struct LeftContext {
  LeftContext(const geom::Rect& domain, geom::Vec2 a,
              const rtree::RStarTree& obstacle_tree, QueryStats* stats)
      : vg(domain, stats),
        source(obstacle_tree, geom::Segment(a, a)),
        ior{&vg, {vg.AddFixedVertex(a)}, &source, &arena, stats} {}

  vis::VisGraph vg;
  vis::ScanArena arena;
  TreeObstacleSource source;
  internal::AnchoredIor ior;
};

/// Set-up and stats finish of one join over A x B: the three trees' pager
/// deltas, the run's counters, and the per-left-object graphs.
class JoinScope {
 public:
  JoinScope(const rtree::RStarTree& tree_a, const rtree::RStarTree& tree_b,
            const rtree::RStarTree& obstacle_tree)
      : tree_a_(tree_a),
        tree_b_(tree_b),
        obstacle_tree_(obstacle_tree),
        a_io_(tree_a.pager()),
        b_io_(tree_b.pager()),
        o_io_(obstacle_tree.pager()) {}

  QueryStats* stats() { return &stats_; }

  /// The pair stream: visits A x B by ascending Euclidean distance (a lower
  /// bound of the obstructed one) while \p within(distance) holds, passing
  /// \p visit each pair with its obstructed distance.
  template <typename Within, typename Visit>
  void ForEachPairByOdist(Within within, Visit visit) {
    rtree::PairDistanceJoin pairs(tree_a_, tree_b_);
    rtree::DataObject a, b;
    double euclid;
    while (within(pairs.PeekDist())) {
      if (!pairs.Next(&a, &b, &euclid)) break;
      ++stats_.points_evaluated;
      const int64_t id = static_cast<int64_t>(a.id);
      auto it = contexts_.find(id);
      if (it == contexts_.end()) {
        const geom::Vec2 pos = a.AsPoint();
        const geom::Rect domain =
            internal::WorkspaceBounds(&tree_a_, &obstacle_tree_,
                                      geom::Rect::FromPoint(pos))
                .ExpandedToCover(tree_b_.Bounds());
        it = contexts_
                 .try_emplace(id, domain, pos, obstacle_tree_, &stats_)
                 .first;
      }
      visit(JoinPair{id, static_cast<int64_t>(b.id),
                     it->second.ior.Odist(b.AsPoint())});
    }
  }

  /// Sets the I/O counters to the three trees' pager deltas, replacing the
  /// semi-join's summed per-ONN counters, and returns the stats.
  QueryStats Finish() {
    stats_.data_page_reads = a_io_.faults() + b_io_.faults();
    stats_.obstacle_page_reads = o_io_.faults();
    stats_.buffer_hits = a_io_.hits() + b_io_.hits() + o_io_.hits();
    stats_.prefetch_issued = stats_.prefetch_hits = stats_.prefetch_wasted = 0;
    internal::AddPrefetchStats(a_io_, &stats_);
    internal::AddPrefetchStats(b_io_, &stats_);
    internal::AddPrefetchStats(o_io_, &stats_);
    stats_.cpu_seconds = timer_.ElapsedSeconds();
    return stats_;
  }

 private:
  Timer timer_;
  QueryStats stats_;
  const rtree::RStarTree& tree_a_;
  const rtree::RStarTree& tree_b_;
  const rtree::RStarTree& obstacle_tree_;
  internal::PagerDelta a_io_;
  internal::PagerDelta b_io_;
  internal::PagerDelta o_io_;
  std::map<int64_t, LeftContext> contexts_;
};

/// Orders joined pairs nearest first, ties by left then right id.
bool NearerPairFirst(const JoinPair& x, const JoinPair& y) {
  if (x.odist != y.odist) return x.odist < y.odist;
  if (x.a_pid != y.a_pid) return x.a_pid < y.a_pid;
  return x.b_pid < y.b_pid;
}

}  // namespace

JoinResult ObstructedEDistanceJoin(const rtree::RStarTree& tree_a,
                                   const rtree::RStarTree& tree_b,
                                   const rtree::RStarTree& obstacle_tree,
                                   double e, const ConnOptions& /*opts*/) {
  CONN_CHECK_MSG(e >= 0.0, "join radius must be non-negative");
  JoinScope scope(tree_a, tree_b, obstacle_tree);
  JoinResult result;
  scope.ForEachPairByOdist([&](double euclid) { return euclid <= e; },
                           [&](const JoinPair& p) {
                             if (p.odist <= e) result.pairs.push_back(p);
                           });
  std::sort(result.pairs.begin(), result.pairs.end(), NearerPairFirst);
  result.stats = scope.Finish();
  return result;
}

JoinResult ObstructedClosestPairs(const rtree::RStarTree& tree_a,
                                  const rtree::RStarTree& tree_b,
                                  const rtree::RStarTree& obstacle_tree,
                                  size_t k, const ConnOptions& /*opts*/) {
  CONN_CHECK_MSG(k >= 1, "closest pairs requires k >= 1");
  JoinScope scope(tree_a, tree_b, obstacle_tree);
  JoinResult result;
  auto pair_stream = [&](auto within, auto visit) {
    scope.ForEachPairByOdist(within, visit);
  };
  result.pairs = internal::KNearest<JoinPair>(k, NearerPairFirst, pair_stream);
  result.stats = scope.Finish();
  return result;
}

JoinResult ObstructedSemiJoin(const rtree::RStarTree& tree_a,
                              const rtree::RStarTree& tree_b,
                              const rtree::RStarTree& obstacle_tree,
                              const ConnOptions& opts) {
  JoinScope scope(tree_a, tree_b, obstacle_tree);
  JoinResult result;
  std::vector<rtree::DataObject> lefts;
  CONN_CHECK(tree_a.RangeQuery(tree_a.Bounds(), &lefts).ok());
  std::sort(lefts.begin(), lefts.end(),
            [](const rtree::DataObject& x, const rtree::DataObject& y) {
              return x.id < y.id;
            });
  for (const rtree::DataObject& a : lefts) {
    const OnnResult onn =
        OnnQuery(tree_b, obstacle_tree, a.AsPoint(), 1, opts);
    *scope.stats() += onn.stats;
    if (!onn.neighbors.empty()) {
      result.pairs.push_back({static_cast<int64_t>(a.id),
                              onn.neighbors[0].pid,
                              onn.neighbors[0].odist});
    }
  }
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
