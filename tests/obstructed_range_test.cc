// Tests for the obstructed range query against the brute-force oracle.

#include <set>

#include <gtest/gtest.h>

#include "core/naive.h"
#include "core/obstructed_range.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(ObstructedRangeTest, WallExcludesEuclideanNeighbor) {
  testutil::Scene scene;
  scene.points = {{0, 30}, {40, 0}};
  scene.obstacles = {geom::Rect({-50, 10}, {50, 20})};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  // Radius 45: Euclidean would include both (30 and 40); the wall pushes
  // point 0's obstructed distance beyond 45.
  const ObstructedRangeResult r =
      ObstructedRangeQuery(tp, to, {0, 0}, 45.0);
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_EQ(r.members[0].pid, 1);
  EXPECT_NEAR(r.members[0].odist, 40.0, 1e-9);
}

TEST(ObstructedRangeTest, ZeroRadiusMatchesOnlyCoincidentPoints) {
  testutil::Scene scene;
  scene.points = {{10, 10}, {20, 20}};
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ObstructedRangeResult none = ObstructedRangeQuery(tp, to, {5, 5}, 0.0);
  EXPECT_TRUE(none.members.empty());
  const ObstructedRangeResult hit =
      ObstructedRangeQuery(tp, to, {10, 10}, 0.0);
  ASSERT_EQ(hit.members.size(), 1u);
  EXPECT_EQ(hit.members[0].pid, 0);
}

TEST(ObstructedRangeTest, MembersSortedByDistance) {
  const testutil::Scene scene = testutil::MakeScene(31, 60, 15);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const ObstructedRangeResult r =
      ObstructedRangeQuery(tp, to, {500, 500}, 300.0);
  for (size_t i = 1; i < r.members.size(); ++i) {
    EXPECT_GE(r.members[i].odist, r.members[i - 1].odist);
  }
  for (const OnnNeighbor& m : r.members) {
    EXPECT_LE(m.odist, 300.0);
  }
}

class ObstructedRangeVsOracle : public ::testing::TestWithParam<uint64_t> {};

// Both tree configurations: two trees, and the unified tree passed twice
// (Section 4.5), which must give the 2-tree answer.
TEST_P(ObstructedRangeVsOracle, SameMembershipAsBruteForce) {
  const testutil::Scene scene = testutil::MakeScene(GetParam(), 50, 18);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree tu = testutil::MakeUnifiedTree(scene);
  const NaiveOracle oracle(scene.points, scene.obstacles);

  Rng rng(GetParam() ^ 0xAB);
  for (int qi = 0; qi < 6; ++qi) {
    const geom::Vec2 qp{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double radius = rng.Uniform(50, 400);
    const ObstructedRangeResult got =
        ObstructedRangeQuery(tp, to, qp, radius);
    const ObstructedRangeResult one_tree =
        ObstructedRangeQuery(tu, tu, qp, radius);
    EXPECT_EQ(one_tree.stats.obstacle_page_reads, 0u);

    const std::vector<double> truth = oracle.OdistToAllPoints(qp);
    std::set<int64_t> want;
    for (size_t i = 0; i < truth.size(); ++i) {
      // Skip near-boundary members (either inclusion is acceptable).
      if (truth[i] <= radius - 1e-6) want.insert(static_cast<int64_t>(i));
    }
    std::set<int64_t> got_ids;
    for (const OnnNeighbor& m : got.members) got_ids.insert(m.pid);
    for (int64_t pid : want) {
      EXPECT_TRUE(got_ids.count(pid)) << "missing pid " << pid;
    }
    for (int64_t pid : got_ids) {
      EXPECT_LE(truth[pid], radius + 1e-6) << "extra pid " << pid;
    }

    ASSERT_EQ(one_tree.members.size(), got.members.size());
    for (size_t i = 0; i < got.members.size(); ++i) {
      EXPECT_EQ(one_tree.members[i].pid, got.members[i].pid) << "rank " << i;
      EXPECT_NEAR(one_tree.members[i].odist, got.members[i].odist,
                  1e-9 * (1 + got.members[i].odist))
          << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObstructedRangeVsOracle,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace core
}  // namespace conn
