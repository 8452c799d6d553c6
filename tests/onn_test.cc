// Tests for the ONN point query (reference [31]) against the brute-force
// oracle, including k > 1 and unreachable configurations.

#include <gtest/gtest.h>

#include "core/naive.h"
#include "core/onn.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(OnnTest, NoObstaclesIsEuclideanNn) {
  testutil::Scene scene;
  scene.points = {{10, 10}, {50, 50}, {90, 10}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  const OnnResult r = OnnQuery(tp, to, {12, 12}, 1);
  ASSERT_EQ(r.neighbors.size(), 1u);
  EXPECT_EQ(r.neighbors[0].pid, 0);
  EXPECT_NEAR(r.neighbors[0].odist, std::hypot(2, 2), 1e-12);
}

TEST(OnnTest, ObstacleForcesFartherNeighbor) {
  testutil::Scene scene;
  scene.points = {{0, 30}, {40, 0}};  // p0 nearer in Euclidean terms
  scene.obstacles = {geom::Rect({-50, 10}, {50, 20})};  // wall blocks p0
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  const OnnResult r = OnnQuery(tp, to, {0, 0}, 1);
  ASSERT_EQ(r.neighbors.size(), 1u);
  // Euclidean NN is p0 (dist 30 < 40), but the wall makes the detour to p0
  // longer than the straight path to p1.
  EXPECT_EQ(r.neighbors[0].pid, 1);
  EXPECT_NEAR(r.neighbors[0].odist, 40.0, 1e-9);
}

TEST(OnnTest, KNeighborsAreSortedAndDistinct) {
  const testutil::Scene scene = testutil::MakeScene(5, 40, 15);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  const OnnResult r = OnnQuery(tp, to, {500, 500}, 5);
  ASSERT_EQ(r.neighbors.size(), 5u);
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_GE(r.neighbors[i].odist, r.neighbors[i - 1].odist);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(r.neighbors[i].pid, r.neighbors[j].pid);
    }
  }
}

TEST(OnnTest, UnreachablePointsExcluded) {
  testutil::Scene scene;
  scene.points = {{500, 500}, {100, 100}};
  // Seal point 0 into a box.
  scene.obstacles = {
      geom::Rect({450, 450}, {550, 460}), geom::Rect({450, 540}, {550, 550}),
      geom::Rect({450, 450}, {460, 550}), geom::Rect({540, 450}, {550, 550})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  const OnnResult r = OnnQuery(tp, to, {200, 200}, 2);
  ASSERT_EQ(r.neighbors.size(), 1u);  // the boxed point is unreachable
  EXPECT_EQ(r.neighbors[0].pid, 1);
}

class OnnVsOracle : public ::testing::TestWithParam<uint64_t> {};

// Both tree configurations: two trees, and the unified tree passed twice
// (Section 4.5), which must give the 2-tree answer.
TEST_P(OnnVsOracle, MatchesBruteForce) {
  const testutil::Scene scene = testutil::MakeScene(GetParam(), 50, 20);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree tu = testutil::MakeUnifiedTree(scene);
  const NaiveOracle oracle(scene.points, scene.obstacles);

  Rng rng(GetParam() ^ 0xA11CE);
  for (int qi = 0; qi < 8; ++qi) {
    const geom::Vec2 qp{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    if (oracle.OnnAt(qp, 1).empty()) continue;  // query inside an obstacle
    for (size_t k : {size_t{1}, size_t{3}}) {
      const OnnResult got = OnnQuery(tp, to, qp, k);
      const OnnResult one_tree = OnnQuery(tu, tu, qp, k);
      EXPECT_EQ(one_tree.stats.obstacle_page_reads, 0u) << "k=" << k;
      const auto want = oracle.OnnAt(qp, k);
      ASSERT_EQ(got.neighbors.size(), want.size()) << "k=" << k;
      ASSERT_EQ(one_tree.neighbors.size(), want.size()) << "k=" << k;
      for (size_t i = 0; i < want.size(); ++i) {
        // Identities may swap under ties; distances must match.
        EXPECT_NEAR(got.neighbors[i].odist, want[i].second,
                    1e-6 * (1 + want[i].second))
            << "k=" << k << " rank=" << i;
        EXPECT_NEAR(one_tree.neighbors[i].odist, got.neighbors[i].odist,
                    1e-9 * (1 + got.neighbors[i].odist))
            << "k=" << k << " rank=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnnVsOracle, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace core
}  // namespace conn
