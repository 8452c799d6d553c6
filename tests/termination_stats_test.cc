// Regression tests for the Lemma-2 termination statistic of the main loop
// CONN, COkNN and CNN share: it used to credit lemma2_terminations whenever
// it stopped while the RLMAX bound was finite — including when the
// best-first stream had simply run out of points.  The statistic must count
// only genuine prunes (points remained beyond RLMAX), or published
// pruning-effectiveness numbers would be corrupted.

#include <vector>

#include <gtest/gtest.h>

#include "core/cnn.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

/// A hand-built scene: every object close to the query segment (RLMAX of
/// the two near points is ~50, the obstacle's mindist is 40), so the loop
/// always exhausts the stream — unified or not — with a finite bound; plus
/// a variant with one far outlier that RLMAX must prune.
testutil::Scene TwoNearPoints() {
  testutil::Scene s;
  s.domain = geom::Rect({0, 0}, {1000, 1000});
  s.query = geom::Segment({0, 100}, {100, 100});
  s.points = {{50, 101}, {50, 102}};
  s.obstacles = {geom::Rect({40, 140}, {60, 160})};  // mindist 40 < RLMAX
  return s;
}

testutil::Scene TwoNearOneFarPoint() {
  testutil::Scene s = TwoNearPoints();
  // mindist to q ~ 800, far beyond the RLMAX of the two near points (~51).
  s.points.push_back({50, 900});
  return s;
}

TEST(TerminationStats, ExhaustedStreamIsNotALemma2Termination) {
  const testutil::Scene s = TwoNearPoints();
  const rtree::RStarTree tp = testutil::MakePointTree(s);
  const rtree::RStarTree to = testutil::MakeObstacleTree(s);

  const CoknnResult r = CoknnQuery(tp, to, s.query, 1);
  EXPECT_EQ(r.stats.points_evaluated, 2u);  // stream fully consumed
  EXPECT_EQ(r.stats.lemma2_terminations, 0u)
      << "an exhausted iterator with a finite bound is not a prune";
}

TEST(TerminationStats, BoundReachedCountsExactlyOneLemma2Termination) {
  const testutil::Scene s = TwoNearOneFarPoint();
  const rtree::RStarTree tp = testutil::MakePointTree(s);
  const rtree::RStarTree to = testutil::MakeObstacleTree(s);

  const CoknnResult r = CoknnQuery(tp, to, s.query, 1);
  EXPECT_LT(r.stats.points_evaluated, 3u);  // the outlier was pruned
  EXPECT_EQ(r.stats.lemma2_terminations, 1u);
}

TEST(TerminationStats, OneTreeCoknnDrawsTheSameDistinction) {
  const testutil::Scene near_only = TwoNearPoints();
  const rtree::RStarTree u1 = testutil::MakeUnifiedTree(near_only);
  const CoknnResult exhausted = CoknnQuery(u1, u1, near_only.query, 1);
  EXPECT_EQ(exhausted.stats.points_evaluated, 2u);
  EXPECT_EQ(exhausted.stats.lemma2_terminations, 0u);

  const testutil::Scene with_far = TwoNearOneFarPoint();
  const rtree::RStarTree u2 = testutil::MakeUnifiedTree(with_far);
  const CoknnResult pruned = CoknnQuery(u2, u2, with_far.query, 1);
  EXPECT_LT(pruned.stats.points_evaluated, 3u);
  EXPECT_EQ(pruned.stats.lemma2_terminations, 1u);
}

TEST(TerminationStats, OneTreeConnDrawsTheSameDistinction) {
  const testutil::Scene near_only = TwoNearPoints();
  const rtree::RStarTree u1 = testutil::MakeUnifiedTree(near_only);
  const ConnResult exhausted = ConnQuery(u1, u1, near_only.query);
  EXPECT_EQ(exhausted.stats.points_evaluated, 2u);
  EXPECT_EQ(exhausted.stats.lemma2_terminations, 0u);

  const testutil::Scene with_far = TwoNearOneFarPoint();
  const rtree::RStarTree u2 = testutil::MakeUnifiedTree(with_far);
  const ConnResult pruned = ConnQuery(u2, u2, with_far.query);
  EXPECT_LT(pruned.stats.points_evaluated, 3u);
  EXPECT_EQ(pruned.stats.lemma2_terminations, 1u);
}

/// CNN runs the same main loop with trivial control point lists, so it
/// draws the same distinction and drains the stream with RLMAX off.
TEST(TerminationStats, CnnDrawsTheSameDistinction) {
  const testutil::Scene near_only = TwoNearPoints();
  const rtree::RStarTree tp1 = testutil::MakePointTree(near_only);
  const ConnResult exhausted = CnnQuery(tp1, near_only.query);
  EXPECT_EQ(exhausted.stats.points_evaluated, 2u);
  EXPECT_EQ(exhausted.stats.lemma2_terminations, 0u);

  const testutil::Scene with_far = TwoNearOneFarPoint();
  const rtree::RStarTree tp2 = testutil::MakePointTree(with_far);
  const ConnResult pruned = CnnQuery(tp2, with_far.query);
  EXPECT_LT(pruned.stats.points_evaluated, 3u);
  EXPECT_EQ(pruned.stats.lemma2_terminations, 1u);

  ConnOptions no_prune;
  no_prune.use_rlmax_terminate = false;
  const ConnResult drained = CnnQuery(tp2, with_far.query, no_prune);
  EXPECT_EQ(drained.stats.points_evaluated, 3u);
  EXPECT_EQ(drained.stats.lemma2_terminations, 0u);
}

/// A zero-length segment has no reachable piece of positive length, but
/// unlike a segment inside obstacles it keeps the loop: the empty result
/// list's RLMAX is 0, so the first point off q is a Lemma-2 stop.
TEST(TerminationStats, ZeroLengthSegmentStopsAtTheFirstPointOffQ) {
  const testutil::Scene s = TwoNearPoints();
  const rtree::RStarTree tp = testutil::MakePointTree(s);
  const rtree::RStarTree to = testutil::MakeObstacleTree(s);
  const geom::Segment point(s.query.a, s.query.a);

  const CoknnResult coknn = CoknnQuery(tp, to, point, 1);
  EXPECT_TRUE(coknn.tuples.empty());
  EXPECT_EQ(coknn.stats.points_evaluated, 0u);
  EXPECT_EQ(coknn.stats.lemma2_terminations, 1u);

  const ConnResult cnn = CnnQuery(tp, point);
  EXPECT_TRUE(cnn.tuples.empty());
  EXPECT_EQ(cnn.stats.points_evaluated, 0u);
  EXPECT_EQ(cnn.stats.lemma2_terminations, 1u);
}

/// Metamorphic invariant over random scenes: with the fix, exactly one of
/// "every point was evaluated" and "one Lemma-2 termination was recorded"
/// holds for any terminating run.
class TerminationInvariant : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TerminationInvariant, PruneFlagMatchesUnconsumedPoints) {
  const testutil::Scene s = testutil::MakeScene(GetParam(), 40, 12);
  const rtree::RStarTree tp = testutil::MakePointTree(s);
  const rtree::RStarTree to = testutil::MakeObstacleTree(s);

  const CoknnResult r = CoknnQuery(tp, to, s.query, 3);
  EXPECT_LE(r.stats.lemma2_terminations, 1u);
  EXPECT_EQ(r.stats.lemma2_terminations == 1,
            r.stats.points_evaluated < s.points.size())
      << "lemma2_terminations=" << r.stats.lemma2_terminations
      << " NPE=" << r.stats.points_evaluated << "/" << s.points.size();

  // With RLMAX disabled the loop always drains the stream: never a prune.
  ConnOptions no_prune;
  no_prune.use_rlmax_terminate = false;
  const CoknnResult drained = CoknnQuery(tp, to, s.query, 3, no_prune);
  EXPECT_EQ(drained.stats.lemma2_terminations, 0u);
  EXPECT_EQ(drained.stats.points_evaluated, s.points.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TerminationInvariant,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace core
}  // namespace conn
