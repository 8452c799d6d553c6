// Tests for ResultList / RLU (Algorithm 3): interval bookkeeping, winner
// selection, RLMAX semantics, and the Lemma 1 fast path's neutrality.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_list.h"

namespace conn {
namespace core {
namespace {

geom::SegmentFrame TestFrame() {
  return geom::SegmentFrame(geom::Segment({0, 0}, {100, 0}));
}

ControlPointList SelfCpl(geom::Vec2 p, double lo = 0.0, double hi = 100.0) {
  return {CplEntry{kThisPoint, p, 0.0, geom::Interval(lo, hi)}};
}

TEST(ResultListTest, StartsUnsetWithInfiniteRlMax) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  ASSERT_EQ(rl.entries().size(), 1u);
  EXPECT_FALSE(rl.entries()[0].has_value());
  EXPECT_TRUE(std::isinf(rl.RlMax(frame)));
  EXPECT_EQ(rl.OnnAt(50.0), kNoPoint);
  EXPECT_TRUE(std::isinf(rl.OdistAt(50.0, frame)));
}

TEST(ResultListTest, FirstPointTakesEverything) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  rl.Update(7, SelfCpl({50, 10}), frame, nullptr);
  ASSERT_EQ(rl.entries().size(), 1u);
  EXPECT_EQ(rl.entries()[0].pid, 7);
  EXPECT_DOUBLE_EQ(rl.OdistAt(50.0, frame), 10.0);
  // RLMAX = distance at the farther endpoint.
  EXPECT_NEAR(rl.RlMax(frame), std::hypot(50, 10), 1e-12);
}

TEST(ResultListTest, BisectorSplitBetweenTwoPoints) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  rl.Update(1, SelfCpl({30, 10}), frame, nullptr);
  rl.Update(2, SelfCpl({70, 10}), frame, nullptr);
  ASSERT_EQ(rl.entries().size(), 2u);
  EXPECT_EQ(rl.OnnAt(10.0), 1);
  EXPECT_EQ(rl.OnnAt(90.0), 2);
  EXPECT_NEAR(rl.entries()[0].range.hi, 50.0, 1e-9);
}

TEST(ResultListTest, DominatedChallengerChangesNothing) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  rl.Update(1, SelfCpl({50, 5}), frame, nullptr);
  QueryStats stats;
  rl.Update(2, SelfCpl({50, 50}), frame, &stats);  // strictly farther
  ASSERT_EQ(rl.entries().size(), 1u);
  EXPECT_EQ(rl.entries()[0].pid, 1);
  EXPECT_GE(stats.lemma1_prunes, 1u);  // the fast path should have fired
}

TEST(ResultListTest, Lemma1OffGivesSameAnswer) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList a(geom::IntervalSet{geom::Interval(0, 100)});
  ResultList b(geom::IntervalSet{geom::Interval(0, 100)},
               /*use_lemma1_prune=*/false);
  const geom::Vec2 pts[] = {{30, 10}, {70, 10}, {50, 3}, {10, 40}, {90, 2}};
  for (int i = 0; i < 5; ++i) {
    a.Update(i, SelfCpl(pts[i]), frame, nullptr);
    b.Update(i, SelfCpl(pts[i]), frame, nullptr);
  }
  for (double t = 0.5; t < 100; t += 1.0) {
    EXPECT_EQ(a.OnnAt(t), b.OnnAt(t)) << "t=" << t;
    EXPECT_NEAR(a.OdistAt(t, frame), b.OdistAt(t, frame), 1e-9);
  }
}

TEST(ResultListTest, ChallengerWinsMiddleCreatesThreeEntries) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  rl.Update(1, SelfCpl({50, 30}), frame, nullptr);
  // Control point near the segment with an offset: wins a bounded window
  // around t=50 (Case 2: two split points).
  ControlPointList challenger = {
      CplEntry{kThisPoint, {50, 2}, 15.0, geom::Interval(0, 100)}};
  rl.Update(2, challenger, frame, nullptr);
  ASSERT_EQ(rl.entries().size(), 3u);
  EXPECT_EQ(rl.entries()[0].pid, 1);
  EXPECT_EQ(rl.entries()[1].pid, 2);
  EXPECT_EQ(rl.entries()[2].pid, 1);
}

TEST(ResultListTest, MultiPieceDomainKeepsGaps) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{
      std::vector<geom::Interval>{{0, 40}, {60, 100}}});
  rl.Update(1, SelfCpl({50, 10}), frame, nullptr);
  ASSERT_EQ(rl.entries().size(), 2u);
  EXPECT_EQ(rl.OnnAt(50.0), kNoPoint);  // inside the gap
  EXPECT_EQ(rl.OnnAt(20.0), 1);
  EXPECT_EQ(rl.OnnAt(80.0), 1);
}

TEST(ResultListTest, PartialCplOnlyAffectsItsIntervals) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  rl.Update(1, SelfCpl({50, 20}), frame, nullptr);
  // A challenger whose CPL covers only [0, 30] (e.g. the rest is blocked).
  ControlPointList partial = {
      CplEntry{kThisPoint, {10, 1}, 0.0, geom::Interval(0, 30)},
      CplEntry{kNoPoint, {}, 0.0, geom::Interval(30, 100)}};
  rl.Update(2, partial, frame, nullptr);
  EXPECT_EQ(rl.OnnAt(10.0), 2);
  EXPECT_EQ(rl.OnnAt(80.0), 1);
}

TEST(ResultListTest, AdjacentSamePointSameCurveMerges) {
  const geom::SegmentFrame frame = TestFrame();
  ResultList rl(geom::IntervalSet{geom::Interval(0, 100)});
  // Same point, same control point, delivered as two adjacent CPL pieces.
  ControlPointList split_cpl = {
      CplEntry{kThisPoint, {50, 10}, 0.0, geom::Interval(0, 50)},
      CplEntry{kThisPoint, {50, 10}, 0.0, geom::Interval(50, 100)}};
  rl.Update(1, split_cpl, frame, nullptr);
  ASSERT_EQ(rl.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(rl.entries()[0].range.Length(), 100.0);
}

// IntervalSet and the merge pass that runs after every claim share one
// adjacency test (geom::Adjacent), so a fresh list never holds two pieces
// the pass would call adjacent.  Near t = 0 the two tests once rounded
// differently: the gap below was kept by IntervalSet and merged by the
// pass, so the entries depended on the order of claims.  Now the pieces
// are one from the start, pieces just over kEpsParam apart stay two, and
// both orders of claims give the same entries.
TEST(ResultListTest, PiecesWithinEpsMergeAfterAnyClaim) {
  const geom::SegmentFrame frame = TestFrame();
  const double gap_lo = -4.8798882384625784e-08;
  const double gap_hi = 5.1201117615374218e-08;
  ASSERT_LE(std::abs(gap_hi - gap_lo), geom::kEpsParam);
  const double apart_hi = gap_lo + 2 * geom::kEpsParam;
  const ControlPointList beyond = {
      CplEntry{kThisPoint, {50, 10}, 0.0, geom::Interval(2, 3)}};
  const ControlPointList right_half = {
      CplEntry{kThisPoint, {0, 5}, 1.0, geom::Interval(0, 1)}};

  const geom::IntervalSet joined{
      std::vector<geom::Interval>{{-1, gap_lo}, {gap_hi, 1}}};
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined.intervals()[0], geom::Interval(-1, 1));
  const geom::IntervalSet apart{
      std::vector<geom::Interval>{{-1, gap_lo}, {apart_hi, 1}}};
  ASSERT_EQ(apart.size(), 2u);

  for (const bool beyond_first : {true, false}) {
    SCOPED_TRACE(beyond_first ? "beyond first" : "right half first");
    ResultList one(joined);
    ResultList two(apart);
    for (ResultList* rl : {&one, &two}) {
      if (beyond_first) rl->Update(3, beyond, frame, nullptr);
      rl->Update(4, right_half, frame, nullptr);
      if (!beyond_first) rl->Update(3, beyond, frame, nullptr);
    }
    // The claim splits the joined piece at its own endpoint t = 0.
    ASSERT_EQ(one.entries().size(), 2u);
    EXPECT_EQ(one.entries()[0].pid, kNoPoint);
    EXPECT_EQ(one.entries()[0].range, geom::Interval(-1, 0));
    EXPECT_EQ(one.entries()[1].pid, 4);
    EXPECT_EQ(one.entries()[1].cp, (geom::Vec2{0, 5}));
    EXPECT_EQ(one.entries()[1].offset, 1.0);
    EXPECT_EQ(one.entries()[1].range, geom::Interval(0, 1));
    // Apart, the claim takes the right piece whole and the left stays.
    ASSERT_EQ(two.entries().size(), 2u);
    EXPECT_EQ(two.entries()[0].pid, kNoPoint);
    EXPECT_EQ(two.entries()[0].range, geom::Interval(-1, gap_lo));
    EXPECT_EQ(two.entries()[1].pid, 4);
    EXPECT_EQ(two.entries()[1].range, geom::Interval(apart_hi, 1));
  }
}

}  // namespace
}  // namespace core
}  // namespace conn
