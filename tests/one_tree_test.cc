// Tests for the 1-tree configuration (Section 4.5): the unified-tree CONN
// and COkNN must return exactly the same answers as the 2-tree versions.

#include <cmath>

#include <gtest/gtest.h>

#include "core/coknn.h"
#include "core/conn.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

class OneTreeEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OneTreeEquivalence, ConnSameAnswerAsTwoTrees) {
  const testutil::Scene scene = testutil::MakeScene(GetParam(), 60, 20);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree unified = testutil::MakeUnifiedTree(scene);

  const ConnResult two = ConnQuery(tp, to, scene.query);
  const ConnResult one = ConnQuery(unified, unified, scene.query);

  EXPECT_EQ(one.unreachable.size(), two.unreachable.size());
  for (int i = 0; i <= 250; ++i) {
    const double t = scene.query.Length() * (i + 0.5) / 251.0;
    const double a = two.OdistAt(t);
    const double b = one.OdistAt(t);
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << "t=" << t;
    } else {
      EXPECT_NEAR(a, b, 1e-6 * (1 + a)) << "t=" << t;
    }
  }
}

TEST_P(OneTreeEquivalence, CoknnSameAnswerAsTwoTrees) {
  const testutil::Scene scene =
      testutil::MakeScene(GetParam() ^ 0x17EE, 40, 15);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const rtree::RStarTree unified = testutil::MakeUnifiedTree(scene);
  const size_t k = 3;

  const CoknnResult two = CoknnQuery(tp, to, scene.query, k);
  const CoknnResult one = CoknnQuery(unified, unified, scene.query, k);

  for (int i = 0; i <= 150; ++i) {
    const double t = scene.query.Length() * (i + 0.5) / 151.0;
    if (two.unreachable.Contains(t, 1e-3)) continue;
    for (size_t j = 0; j < k; ++j) {
      const double a = two.OdistAt(t, j);
      const double b = one.OdistAt(t, j);
      if (std::isinf(a) || std::isinf(b)) {
        EXPECT_EQ(std::isinf(a), std::isinf(b)) << "t=" << t << " j=" << j;
      } else {
        EXPECT_NEAR(a, b, 1e-6 * (1 + a)) << "t=" << t << " j=" << j;
      }
    }
  }
}

TEST_P(OneTreeEquivalence, OneTreeUsesSingleTreeIo) {
  const testutil::Scene scene =
      testutil::MakeScene(GetParam() ^ 0xF00D, 60, 20);
  const rtree::RStarTree unified = testutil::MakeUnifiedTree(scene);
  const ConnResult one = ConnQuery(unified, unified, scene.query);
  EXPECT_GT(one.stats.data_page_reads, 0u);
  EXPECT_EQ(one.stats.obstacle_page_reads, 0u);  // single pager
  EXPECT_GT(one.stats.points_evaluated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneTreeEquivalence,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace core
}  // namespace conn
