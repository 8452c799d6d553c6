// Tests for Euclidean CNN (Tao et al.) and its equivalence with CONN on an
// empty obstacle set — the Figure 1(a) semantics.

#include <gtest/gtest.h>

#include "core/cnn.h"
#include "core/conn.h"
#include "geom/distance.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(CnnTest, SinglePointOwnsWholeSegment) {
  testutil::Scene scene;
  scene.points = {{50, 40}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const ConnResult r = CnnQuery(tp, geom::Segment({0, 0}, {100, 0}));
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].point_id, 0);
  EXPECT_DOUBLE_EQ(r.tuples[0].range.Length(), 100.0);
}

TEST(CnnTest, TwoPointsSplitAtBisector) {
  testutil::Scene scene;
  scene.points = {{20, 10}, {80, 10}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const ConnResult r = CnnQuery(tp, geom::Segment({0, 0}, {100, 0}));
  ASSERT_EQ(r.tuples.size(), 2u);
  EXPECT_NEAR(r.tuples[0].range.hi, 50.0, 1e-9);
  const auto splits = r.SplitParams();
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_NEAR(splits[0], 50.0, 1e-9);
}

TEST(CnnTest, Figure1aShape) {
  // Qualitative check of the paper's Figure 1(a): several stations along a
  // highway produce an ordered sequence of split points.
  testutil::Scene scene;
  scene.points = {{100, 80},  {250, -60}, {420, 90},
                  {600, -70}, {780, 60},  {930, -40}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const ConnResult r = CnnQuery(tp, geom::Segment({0, 0}, {1000, 0}));
  EXPECT_GE(r.tuples.size(), 4u);
  // Every point of q must be assigned, in order, and each tuple's point
  // must actually be the Euclidean NN at the tuple midpoint.
  for (const ConnTuple& t : r.tuples) {
    const geom::Vec2 s = r.query.At(t.range.Mid());
    double best = 1e300;
    int64_t best_pid = -1;
    for (size_t i = 0; i < scene.points.size(); ++i) {
      const double d = geom::Dist(scene.points[i], s);
      if (d < best) {
        best = d;
        best_pid = static_cast<int64_t>(i);
      }
    }
    EXPECT_EQ(t.point_id, best_pid);
  }
}

class CnnEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CnnEquivalence, ConnWithNoObstaclesEqualsCnn) {
  testutil::Scene scene = testutil::MakeScene(GetParam(), 60, 0);
  scene.obstacles.clear();
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);  // empty

  const ConnResult cnn = CnnQuery(tp, scene.query);
  const ConnResult conn = ConnQuery(tp, to, scene.query);

  for (int i = 0; i <= 200; ++i) {
    const double t = scene.query.Length() * (i + 0.5) / 201.0;
    EXPECT_NEAR(cnn.OdistAt(t), conn.OdistAt(t), 1e-9) << "t=" << t;
    EXPECT_EQ(cnn.OnnAt(t), conn.OnnAt(t)) << "t=" << t;
  }
  // One main loop: the same points evaluated, the same termination.
  EXPECT_EQ(cnn.stats.points_evaluated, conn.stats.points_evaluated);
  EXPECT_EQ(cnn.stats.lemma2_terminations, conn.stats.lemma2_terminations);
}

TEST_P(CnnEquivalence, CnnMatchesDenseSampling) {
  testutil::Scene scene = testutil::MakeScene(GetParam() ^ 0xCAFE, 80, 0);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const ConnResult cnn = CnnQuery(tp, scene.query);

  for (int i = 0; i <= 300; ++i) {
    const double t = scene.query.Length() * i / 300.0;
    const geom::Vec2 s = scene.query.At(t);
    double best = 1e300;
    for (const geom::Vec2& p : scene.points) {
      best = std::min(best, geom::Dist(p, s));
    }
    EXPECT_NEAR(cnn.OdistAt(t), best, 1e-7 * (1 + best)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnnEquivalence,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace core
}  // namespace conn
