// Directed unit tests for ConnQuery: the paper's running examples
// (Figure 1(b) semantics), result accessors, statistics, and termination.

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "core/conn.h"
#include "core/onn.h"
#include "geom/predicates.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(ConnQueryTest, EmptyDataSetYieldsUnsetTuple) {
  testutil::Scene scene;
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].point_id, kNoPoint);
  EXPECT_TRUE(std::isinf(r.OdistAt(50.0)));
}

TEST(ConnQueryTest, ObstacleChangesTheAnswerVsEuclidean) {
  // A wall in front of the Euclidean NN flips the winner — the essence of
  // Figure 1(b) (point d is the Euclidean NN of S but not its ONN).
  testutil::Scene scene;
  scene.points = {{50, 30}, {50, -60}};  // p0 nearer without obstacles
  scene.obstacles = {geom::Rect({10, 10}, {90, 20})};  // wall above q
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));

  // At the segment midpoint, p0's detour around the wall is longer than
  // p1's direct 60: the ONN must be p1.
  EXPECT_EQ(r.OnnAt(50.0), 1);
  EXPECT_NEAR(r.OdistAt(50.0), 60.0, 1e-9);
  // Near the segment ends the wall matters less; p0 wins there.
  EXPECT_EQ(r.OnnAt(1.0), 0);
  EXPECT_EQ(r.OnnAt(99.0), 0);
}

TEST(ConnQueryTest, ControlPointsAreObstacleCorners) {
  testutil::Scene scene;
  scene.points = {{50, 100}};
  scene.obstacles = {geom::Rect({30, 40}, {70, 60})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));

  // Shadowed center pieces must route through the obstacle's lower corners.
  bool saw_left = false, saw_right = false;
  for (const ConnTuple& t : r.tuples) {
    if (t.control_point == geom::Vec2{30, 40}) saw_left = true;
    if (t.control_point == geom::Vec2{70, 40}) saw_right = true;
  }
  EXPECT_TRUE(saw_left);
  EXPECT_TRUE(saw_right);
}

TEST(ConnQueryTest, StatsArePopulated) {
  const testutil::Scene scene = testutil::MakeScene(3, 60, 20);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, scene.query);

  EXPECT_GT(r.stats.points_evaluated, 0u);
  EXPECT_GT(r.stats.data_page_reads, 0u);
  EXPECT_GT(r.stats.vis_graph_vertices, 2u);
  EXPECT_GT(r.stats.dijkstra_runs, 0u);
  EXPECT_GE(r.stats.cpu_seconds, 0.0);
  EXPECT_GT(r.stats.QueryCostSeconds(), r.stats.cpu_seconds);
}

TEST(ConnQueryTest, RlmaxTerminationDoesNotChangeTheAnswer) {
  testutil::Scene scene = testutil::MakeScene(9, 120, 15);
  // Keep the query fully reachable so the Lemma 2 bound becomes finite and
  // its savings are observable.
  std::erase_if(scene.obstacles, [&](const geom::Rect& r) {
    return geom::SegmentIntersectsRect(scene.query, r);
  });
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  ConnOptions no_term;
  no_term.use_rlmax_terminate = false;
  const ConnResult with_term = ConnQuery(tp, to, scene.query);
  const ConnResult without = ConnQuery(tp, to, scene.query, no_term);

  // Lemma 2 saves work...
  EXPECT_LT(with_term.stats.points_evaluated,
            without.stats.points_evaluated);
  EXPECT_EQ(without.stats.points_evaluated, scene.points.size());
  // ...but never changes the answer.
  for (int i = 0; i <= 150; ++i) {
    const double t = scene.query.Length() * (i + 0.5) / 151.0;
    const double a = with_term.OdistAt(t);
    const double b = without.OdistAt(t);
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << t;
    } else {
      EXPECT_NEAR(a, b, 1e-9) << t;
    }
  }
}

/// Every QueryStats field of \p a and \p b but the measured cpu_seconds.
void ExpectSameCounters(const QueryStats& a, const QueryStats& b) {
#define CONN_EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << #f
  CONN_EXPECT_FIELD(data_page_reads);
  CONN_EXPECT_FIELD(obstacle_page_reads);
  CONN_EXPECT_FIELD(buffer_hits);
  CONN_EXPECT_FIELD(prefetch_issued);
  CONN_EXPECT_FIELD(prefetch_hits);
  CONN_EXPECT_FIELD(prefetch_wasted);
  CONN_EXPECT_FIELD(points_evaluated);
  CONN_EXPECT_FIELD(obstacles_evaluated);
  CONN_EXPECT_FIELD(vis_graph_vertices);
  CONN_EXPECT_FIELD(dijkstra_runs);
  CONN_EXPECT_FIELD(dijkstra_settled);
  CONN_EXPECT_FIELD(visibility_tests);
  CONN_EXPECT_FIELD(seed_tests);
  CONN_EXPECT_FIELD(scan_warm_restarts);
  CONN_EXPECT_FIELD(tick_warm_starts);
  CONN_EXPECT_FIELD(tick_frontier_reuse);
  CONN_EXPECT_FIELD(cross_shard_store_hits);
  CONN_EXPECT_FIELD(repairs_applied);
  CONN_EXPECT_FIELD(tuples_carried);
  CONN_EXPECT_FIELD(tuples_rescored);
  CONN_EXPECT_FIELD(frontier_shares);
  CONN_EXPECT_FIELD(vr_cache_evictions);
  CONN_EXPECT_FIELD(split_evaluations);
  CONN_EXPECT_FIELD(lemma1_prunes);
  CONN_EXPECT_FIELD(lemma7_terminations);
  CONN_EXPECT_FIELD(lemma2_terminations);
#undef CONN_EXPECT_FIELD
}

// A zero-length CONN runs the ONN point query with k = 1: the same
// neighbour, the bit-identical distance and the same counters, with two
// trees and with the unified tree passed twice.
TEST(ConnQueryTest, DegenerateZeroLengthQueryIsOnn) {
  const testutil::Scene scene = testutil::MakeScene(4, 30, 10);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree tu = testutil::MakeUnifiedTree(scene);
  const geom::Vec2 qp{500, 500};
  for (const auto& [data, obstacles] :
       {std::pair{&tp, &to}, std::pair{&tu, &tu}}) {
    SCOPED_TRACE(data == obstacles ? "1-tree" : "2-tree");
    const ConnResult r = ConnQuery(*data, *obstacles, geom::Segment(qp, qp));
    ASSERT_EQ(r.tuples.size(), 1u);
    EXPECT_NE(r.tuples[0].point_id, kNoPoint);
    EXPECT_GT(r.tuples[0].offset, 0.0);

    const OnnResult onn = OnnQuery(*data, *obstacles, qp, 1);
    ASSERT_EQ(onn.neighbors.size(), 1u);
    EXPECT_EQ(r.tuples[0].point_id, onn.neighbors[0].pid);
    EXPECT_EQ(r.tuples[0].offset, onn.neighbors[0].odist);  // bit-identical
    ExpectSameCounters(r.stats, onn.stats);
  }
}

TEST(ConnQueryTest, MergedByPointCoalescesControlPointPieces) {
  testutil::Scene scene;
  scene.points = {{50, 100}};
  scene.obstacles = {geom::Rect({30, 40}, {70, 60})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));

  // One data point: the <p, R> view must be a single tuple even though the
  // <p, cp, R> view has several control-point pieces.
  EXPECT_GT(r.tuples.size(), 1u);
  const auto merged = r.MergedByPoint();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].first, 0);
  EXPECT_NEAR(merged[0].second.Length(), 100.0, 1e-6);
  EXPECT_TRUE(r.SplitParams().empty());  // no ONN change anywhere
}

TEST(ConnQueryTest, SplitParamsMarkOnnChanges) {
  testutil::Scene scene;
  scene.points = {{20, 10}, {80, 10}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  const auto splits = r.SplitParams();
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_NEAR(splits[0], 50.0, 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace conn
