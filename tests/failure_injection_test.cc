// Adversarial / degenerate-input tests: queries crossing obstacles, data
// points walled off or sitting on obstacle corners, duplicate points,
// obstacle-dense pockets, and boundary-touching geometry.  The engine must
// stay correct (verified against the oracle) and must never crash or hang.
// The subscription-service section injects per-client failures into the
// tick loop: a failing client must be quarantined and reported without
// poisoning its siblings' warm state.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/coknn.h"
#include "core/conn.h"
#include "core/naive.h"
#include "exec/subscription.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(FailureInjectionTest, QueryCrossingObstacleReportsUnreachable) {
  testutil::Scene scene;
  scene.points = {{10, 50}, {90, 50}};
  scene.obstacles = {geom::Rect({40, -20}, {60, 120})};  // wall across q
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 50}, {100, 50}));

  ASSERT_EQ(r.unreachable.size(), 1u);
  EXPECT_NEAR(r.unreachable.intervals()[0].lo, 40.0, 1e-5);
  EXPECT_NEAR(r.unreachable.intervals()[0].hi, 60.0, 1e-5);
  EXPECT_EQ(r.OnnAt(50.0), kNoPoint);
  // Outside the wall both sides have answers; the wall splits ownership.
  EXPECT_EQ(r.OnnAt(10.0), 0);
  EXPECT_EQ(r.OnnAt(90.0), 1);
  // The left point's odist at the right piece requires a detour.
  EXPECT_GT(r.OdistAt(65.0), 0.0);
}

TEST(FailureInjectionTest, WalledOffPointNeverWins) {
  testutil::Scene scene;
  scene.points = {{500, 500}, {700, 520}};
  // Box point 0 (Euclidean-nearest to the query) completely.
  scene.obstacles = {
      geom::Rect({450, 450}, {550, 460}), geom::Rect({450, 540}, {550, 550}),
      geom::Rect({450, 450}, {460, 550}), geom::Rect({540, 450}, {550, 550})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r =
      ConnQuery(tp, to, geom::Segment({480, 600}, {620, 600}));
  for (const ConnTuple& t : r.tuples) {
    EXPECT_EQ(t.point_id, 1) << "walled-off point must not appear";
  }
}

TEST(FailureInjectionTest, AllPointsUnreachableGivesEmptyAnswer) {
  testutil::Scene scene;
  scene.points = {{500, 500}};
  scene.obstacles = {
      geom::Rect({450, 450}, {550, 460}), geom::Rect({450, 540}, {550, 550}),
      geom::Rect({450, 450}, {460, 550}), geom::Rect({540, 450}, {550, 550})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].point_id, kNoPoint);
  EXPECT_TRUE(std::isinf(r.OdistAt(50.0)));
}

TEST(FailureInjectionTest, PointOnObstacleCornerIsUsable) {
  testutil::Scene scene;
  scene.points = {{30, 40}};  // exactly an obstacle corner
  scene.obstacles = {geom::Rect({30, 40}, {70, 80})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  ASSERT_FALSE(r.tuples.empty());
  for (const ConnTuple& t : r.tuples) {
    EXPECT_EQ(t.point_id, 0);
    EXPECT_TRUE(std::isfinite(r.OdistAt(t.range.Mid())));
  }
}

TEST(FailureInjectionTest, DuplicatePointsTie) {
  testutil::Scene scene;
  scene.points = {{50, 30}, {50, 30}, {50, 30}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_NEAR(r.OdistAt(50.0), 30.0, 1e-9);
  // Any of the duplicates is acceptable as the winner.
  EXPECT_GE(r.tuples[0].point_id, 0);
  EXPECT_LE(r.tuples[0].point_id, 2);
}

TEST(FailureInjectionTest, QueryTouchingObstacleEdgeIsFullyReachable) {
  testutil::Scene scene;
  scene.points = {{50, 50}};
  scene.obstacles = {geom::Rect({20, -30}, {80, 0})};  // q runs along its top
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, geom::Segment({0, 0}, {100, 0}));
  EXPECT_TRUE(r.unreachable.IsEmpty());
  EXPECT_NEAR(r.OdistAt(50.0), 50.0, 1e-9);
}

TEST(FailureInjectionTest, DensePocketMatchesOracle) {
  // A dense pocket of overlapping obstacles around the query's middle.
  testutil::Scene scene = testutil::MakeScene(77, 25, 0, 600.0);
  Rng rng(1234);
  const geom::Vec2 mid = scene.query.At(scene.query.Length() / 2);
  for (int i = 0; i < 30; ++i) {
    const geom::Vec2 c{mid.x + rng.Uniform(-120, 120),
                       mid.y + rng.Uniform(-120, 120)};
    const double w = rng.Uniform(10, 60), h = rng.Uniform(10, 60);
    scene.obstacles.push_back(geom::Rect({c.x - w / 2, c.y - h / 2},
                                         {c.x + w / 2, c.y + h / 2}));
  }
  datagen::DisplacePointsOutsideObstacles(&scene.points, scene.obstacles, 9);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult r = ConnQuery(tp, to, scene.query);
  const NaiveOracle oracle(scene.points, scene.obstacles);

  for (int i = 0; i <= 150; ++i) {
    const double t = scene.query.Length() * i / 150.0;
    if (r.unreachable.Contains(t, 1e-3)) continue;
    const auto want = oracle.OnnAt(scene.query.At(t), 1);
    const double got = r.OdistAt(t);
    if (want.empty()) {
      EXPECT_TRUE(std::isinf(got));
    } else {
      ASSERT_TRUE(std::isfinite(got)) << "t=" << t;
      EXPECT_NEAR(got, want[0].second, 1e-5 * (1 + want[0].second))
          << "t=" << t;
    }
  }
}

TEST(FailureInjectionTest, CoknnWithKLargerThanDataset) {
  testutil::Scene scene;
  scene.points = {{30, 20}, {70, 20}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const CoknnResult r =
      CoknnQuery(tp, to, geom::Segment({0, 0}, {100, 0}), 5);
  ASSERT_FALSE(r.tuples.empty());
  for (const CoknnTuple& t : r.tuples) {
    EXPECT_EQ(t.candidates.size(), 2u);  // only 2 points exist
  }
}

exec::RouteSpec MakeRoute(Rng* rng) {
  exec::RouteSpec r;
  geom::Vec2 pos{rng->Uniform(200, 800), rng->Uniform(200, 800)};
  r.waypoints.push_back(pos);
  for (int leg = 0; leg < 3; ++leg) {
    pos.x = std::clamp(pos.x + rng->Uniform(-250.0, 250.0), 0.0, 1000.0);
    pos.y = std::clamp(pos.y + rng->Uniform(-250.0, 250.0), 0.0, 1000.0);
    r.waypoints.push_back(pos);
  }
  r.speed = 64.0;
  return r;
}

void ExpectCoknnBitIdentical(const CoknnResult& got, const CoknnResult& want) {
  ASSERT_EQ(got.unreachable.intervals().size(),
            want.unreachable.intervals().size());
  for (size_t i = 0; i < got.unreachable.intervals().size(); ++i) {
    EXPECT_EQ(got.unreachable.intervals()[i].lo,
              want.unreachable.intervals()[i].lo);
    EXPECT_EQ(got.unreachable.intervals()[i].hi,
              want.unreachable.intervals()[i].hi);
  }
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    EXPECT_EQ(got.tuples[i].range.lo, want.tuples[i].range.lo);
    EXPECT_EQ(got.tuples[i].range.hi, want.tuples[i].range.hi);
    ASSERT_EQ(got.tuples[i].candidates.size(),
              want.tuples[i].candidates.size());
    for (size_t c = 0; c < got.tuples[i].candidates.size(); ++c) {
      EXPECT_EQ(got.tuples[i].candidates[c].pid,
                want.tuples[i].candidates[c].pid);
      EXPECT_EQ(got.tuples[i].candidates[c].cp,
                want.tuples[i].candidates[c].cp);
      EXPECT_EQ(got.tuples[i].candidates[c].offset,
                want.tuples[i].candidates[c].offset);
    }
  }
}

TEST(FailureInjectionTest, TickLoopQuarantinesFailingClientWithoutPoison) {
  // One client's per-tick query starts failing at tick 2.  It must be
  // reported with the error once, quarantined from then on, and its
  // siblings' answers must stay bit-identical to a run with no failure —
  // the shared warm state (carried workspaces) must not be poisoned by
  // the victim's disappearance.
  const testutil::Scene scene = testutil::MakeScene(4242, 120, 50);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  Rng rng(0xFA11);
  std::vector<exec::RouteSpec> routes;
  for (int i = 0; i < 6; ++i) routes.push_back(MakeRoute(&rng));

  exec::SubscriptionOptions base;
  base.batch.num_threads = 1;
  base.batch.target_shard_size = 3;
  base.batch.share_locality_factor = 0.0;
  base.reshard_period = 3;

  exec::SubscriptionService healthy(tp, to, base);
  std::vector<int64_t> healthy_ids;
  for (const exec::RouteSpec& r : routes) {
    healthy_ids.push_back(healthy.Subscribe(r, 2).value());
  }

  // Ids are assigned in subscribe order, so the two services agree on who
  // the victim is.
  const int64_t victim = healthy_ids[2];
  exec::SubscriptionOptions faulty = base;
  faulty.failure_injector = [victim](int64_t client, uint64_t tick) {
    if (client == victim && tick >= 2) {
      return Status::InvalidArgument("injected tick fault");
    }
    return Status::OK();
  };
  exec::SubscriptionService svc(tp, to, faulty);
  std::vector<int64_t> ids;
  for (const exec::RouteSpec& r : routes) {
    ids.push_back(svc.Subscribe(r, 2).value());
  }
  ASSERT_EQ(ids, healthy_ids);

  uint64_t warm_starts = 0;
  for (uint64_t tick = 0; tick < 6; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    const exec::TickResult got = svc.Tick();
    const exec::TickResult want = healthy.Tick();
    warm_starts += got.stats.per_query_totals.tick_warm_starts;

    // Tick 2 reports the victim's error once; later ticks exclude it.
    const size_t expected_updates = tick <= 2 ? 6 : 5;
    ASSERT_EQ(got.updates.size(), expected_updates);
    EXPECT_EQ(got.quarantined_now, tick == 2 ? size_t{1} : size_t{0});

    for (const exec::ClientUpdate& u : got.updates) {
      SCOPED_TRACE("client " + std::to_string(u.client));
      if (u.client == victim && tick == 2) {
        EXPECT_FALSE(u.status.ok());
        EXPECT_FALSE(u.result.has_value());
        continue;
      }
      ASSERT_TRUE(u.status.ok());
      ASSERT_TRUE(u.result.has_value());
      // Find the same client in the no-failure run and demand bit-identity.
      const auto it =
          std::find_if(want.updates.begin(), want.updates.end(),
                       [&](const exec::ClientUpdate& w) {
                         return w.client == u.client;
                       });
      ASSERT_NE(it, want.updates.end());
      EXPECT_EQ(u.segment, it->segment);
      ExpectCoknnBitIdentical(*u.result, *it->result);
    }
  }
  EXPECT_EQ(svc.quarantined_clients(), size_t{1});
  EXPECT_GT(warm_starts, 0u) << "warm path never engaged; test is vacuous";
}

/// A query segment lying wholly inside an obstacle's interior has no
/// reachable piece.  CONN and COkNN must return no tuples, report all of q
/// unreachable and evaluate no point, in both tree configurations, with
/// RLMAX on or off, and whether the data point lies on q (inside the
/// obstacle too) or off it.
class FullyBlockedQuery : public ::testing::TestWithParam<int> {};

TEST_P(FullyBlockedQuery, AnswersEmptyWithoutEvaluatingPoints) {
  // Bits of the parameter: one tree, RLMAX on, data point on q.
  const bool one_tree = (GetParam() & 1) != 0;
  const bool rlmax = (GetParam() & 2) != 0;
  const bool point_on_q = (GetParam() & 4) != 0;
  testutil::Scene scene;
  scene.points = {point_on_q ? geom::Vec2{50, 50} : geom::Vec2{50, 70}};
  scene.obstacles = {geom::Rect({0, 0}, {100, 100})};
  const geom::Segment q({10, 50}, {90, 50});
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree unified = testutil::MakeUnifiedTree(scene);
  const rtree::RStarTree& data = one_tree ? unified : tp;
  const rtree::RStarTree& obstacles = one_tree ? unified : to;
  ConnOptions opts;
  opts.use_rlmax_terminate = rlmax;
  const geom::IntervalSet all_of_q(geom::Interval(0.0, q.Length()));

  const ConnResult conn = ConnQuery(data, obstacles, q, opts);
  EXPECT_TRUE(conn.tuples.empty());
  EXPECT_EQ(conn.unreachable, all_of_q);
  EXPECT_EQ(conn.stats.points_evaluated, 0u);
  EXPECT_EQ(conn.stats.lemma2_terminations, 0u);

  const CoknnResult coknn = CoknnQuery(data, obstacles, q, 2, opts);
  EXPECT_TRUE(coknn.tuples.empty());
  EXPECT_EQ(coknn.unreachable, all_of_q);
  EXPECT_EQ(coknn.stats.points_evaluated, 0u);
  EXPECT_EQ(coknn.stats.lemma2_terminations, 0u);
}

INSTANTIATE_TEST_SUITE_P(TreesRlmaxPoint, FullyBlockedQuery,
                         ::testing::Range(0, 8));

TEST(FailureInjectionTest, ReversedQuerySegmentIsSymmetric) {
  const testutil::Scene scene = testutil::MakeScene(88, 40, 12);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ConnResult fwd = ConnQuery(tp, to, scene.query);
  const ConnResult rev = ConnQuery(tp, to, scene.query.Reversed());
  const double len = scene.query.Length();
  for (int i = 0; i <= 100; ++i) {
    const double t = len * (i + 0.5) / 101.0;
    const double a = fwd.OdistAt(t);
    const double b = rev.OdistAt(len - t);
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << "t=" << t;
    } else {
      EXPECT_NEAR(a, b, 1e-6 * (1 + a)) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace conn
