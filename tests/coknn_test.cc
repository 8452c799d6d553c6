// Tests for COkNN (Section 4.5): k=1 equivalence with CONN, candidate-set
// semantics, and a full property sweep against brute-force k-ONN sampling.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/coknn.h"
#include "core/conn.h"
#include "core/naive.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

TEST(CoknnTest, KnnListStartsEmptyWithInfiniteBound) {
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {100, 0}));
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 3);
  EXPECT_TRUE(std::isinf(rl.RlMax(frame)));
}

TEST(CoknnTest, FewerThanKCandidatesKeepsInfiniteBound) {
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {100, 0}));
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 2);
  ControlPointList cpl = {
      CplEntry{kThisPoint, {50, 10}, 0.0, geom::Interval(0, 100)}};
  rl.Update(1, cpl, frame, nullptr);
  EXPECT_TRUE(std::isinf(rl.RlMax(frame)));  // only 1 of 2 candidates
  ControlPointList cpl2 = {
      CplEntry{kThisPoint, {20, 5}, 0.0, geom::Interval(0, 100)}};
  rl.Update(2, cpl2, frame, nullptr);
  EXPECT_TRUE(std::isfinite(rl.RlMax(frame)));
}

TEST(CoknnTest, SetChangesCreateSplits) {
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {100, 0}));
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  ControlPointList a = {
      CplEntry{kThisPoint, {30, 10}, 0.0, geom::Interval(0, 100)}};
  ControlPointList b = {
      CplEntry{kThisPoint, {70, 10}, 0.0, geom::Interval(0, 100)}};
  rl.Update(1, a, frame, nullptr);
  rl.Update(2, b, frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 2u);
  EXPECT_EQ(rl.tuples()[0].candidates[0].pid, 1);
  EXPECT_EQ(rl.tuples()[1].candidates[0].pid, 2);
  EXPECT_NEAR(rl.tuples()[0].range.hi, 50.0, 1e-9);
}

TEST(CoknnTest, KeepsBothCandidatesWithoutSplitWhenKIs2) {
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {100, 0}));
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 2);
  ControlPointList a = {
      CplEntry{kThisPoint, {30, 10}, 0.0, geom::Interval(0, 100)}};
  ControlPointList b = {
      CplEntry{kThisPoint, {70, 10}, 0.0, geom::Interval(0, 100)}};
  rl.Update(1, a, frame, nullptr);
  rl.Update(2, b, frame, nullptr);
  // The SET {1,2} is constant along q even though the order flips at 50.
  ASSERT_EQ(rl.tuples().size(), 1u);
  EXPECT_EQ(rl.tuples()[0].candidates.size(), 2u);
}

class CoknnEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoknnEquivalence, KOneEqualsConn) {
  const testutil::Scene scene = testutil::MakeScene(GetParam(), 50, 15);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);

  const ConnResult conn = ConnQuery(tp, to, scene.query);
  const CoknnResult k1 = CoknnQuery(tp, to, scene.query, 1);

  for (int i = 0; i <= 200; ++i) {
    const double t = scene.query.Length() * (i + 0.5) / 201.0;
    if (conn.unreachable.Contains(t, 1e-3)) continue;
    const double a = conn.OdistAt(t);
    const double b = k1.OdistAt(t, 0);
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << "t=" << t;
    } else {
      EXPECT_NEAR(a, b, 1e-6 * (1 + a)) << "t=" << t;
    }
  }
}

TEST_P(CoknnEquivalence, MatchesOracleKDistancesAtSamples) {
  const testutil::Scene scene =
      testutil::MakeScene(GetParam() ^ 0xFACE, 40, 12);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const NaiveOracle oracle(scene.points, scene.obstacles);
  const size_t k = 3;
  const CoknnResult r = CoknnQuery(tp, to, scene.query, k);

  for (int i = 0; i <= 120; ++i) {
    const double t = scene.query.Length() * i / 120.0;
    if (r.unreachable.Contains(t, 1e-3)) continue;
    // Skip samples near tuple boundaries (either side valid).
    bool near_boundary = false;
    for (const CoknnTuple& tup : r.tuples) {
      if (std::abs(t - tup.range.lo) < 1e-3 ||
          std::abs(t - tup.range.hi) < 1e-3) {
        near_boundary = true;
      }
    }
    if (near_boundary) continue;

    const auto want = oracle.OnnAt(scene.query.At(t), k);
    for (size_t j = 0; j < want.size(); ++j) {
      const double got = r.OdistAt(t, j);
      EXPECT_NEAR(got, want[j].second, 1e-5 * (1 + want[j].second))
          << "seed=" << GetParam() << " t=" << t << " rank=" << j;
    }
  }
}

TEST_P(CoknnEquivalence, CandidateSetsAreDistinctPids) {
  const testutil::Scene scene =
      testutil::MakeScene(GetParam() ^ 0xD00D, 30, 10);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const CoknnResult r = CoknnQuery(tp, to, scene.query, 4);
  for (const CoknnTuple& tup : r.tuples) {
    std::set<int64_t> pids;
    for (const KnnCandidate& c : tup.candidates) pids.insert(c.pid);
    EXPECT_EQ(pids.size(), tup.candidates.size())
        << "duplicate pid in one interval's candidate set";
    EXPECT_LE(tup.candidates.size(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoknnEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

TEST(CoknnTest, CrossingWithinEpsOfIntervalEndDoesNotCreateSliver) {
  // Candidate 1: curve t (cp at the segment start).  Candidate 2: curve
  // (100 - t) + (100 - 1e-7), crossing candidate 1 at t = 100 - 5e-8 —
  // within kEpsParam of the interval end.  The eps-tolerant dedupe of the
  // split breaks swallows the terminal break at 100; the clamp must pull
  // the surviving break onto 100 instead of re-appending an eps-sliver.
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {100, 0}));
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  ControlPointList a = {
      CplEntry{kThisPoint, {0, 0}, 0.0, geom::Interval(0, 100)}};
  ControlPointList b = {
      CplEntry{kThisPoint, {100, 0}, 100.0 - 1e-7, geom::Interval(0, 100)}};
  rl.Update(1, a, frame, nullptr);
  rl.Update(2, b, frame, nullptr);

  ASSERT_FALSE(rl.tuples().empty());
  // The tuples tile [0, 100] exactly — the last boundary lands on 100,
  // not on the eps-shifted crossing — and no eps-sliver survives.
  EXPECT_EQ(rl.tuples().front().range.lo, 0.0);
  EXPECT_EQ(rl.tuples().back().range.hi, 100.0);
  for (size_t i = 0; i + 1 < rl.tuples().size(); ++i) {
    EXPECT_EQ(rl.tuples()[i].range.hi, rl.tuples()[i + 1].range.lo);
  }
  for (const CoknnTuple& tup : rl.tuples()) {
    EXPECT_GT(tup.range.Length(), geom::kEpsSliver);
  }
  // Candidate 1 wins everywhere but the eps-neighborhood of 100.
  ASSERT_EQ(rl.tuples().size(), 1u);
  EXPECT_EQ(rl.tuples()[0].candidates[0].pid, 1);
}

TEST(CoknnTest, FindTupleBinarySearchMatchesLinearSemantics) {
  CoknnResult r;
  r.query = geom::Segment({0, 0}, {100, 0});
  r.k = 1;
  CoknnTuple first;
  first.range = geom::Interval(0, 40);
  first.candidates.push_back(KnnCandidate{1, {20, 0}, 0.0});
  CoknnTuple second;
  second.range = geom::Interval(40, 100);
  second.candidates.push_back(KnnCandidate{2, {70, 0}, 0.0});
  r.tuples = {first, second};

  EXPECT_EQ(r.FindTuple(10.0), &r.tuples[0]);
  EXPECT_EQ(r.FindTuple(70.0), &r.tuples[1]);
  // A shared boundary belongs to the earlier tuple (first-match semantics
  // of the former linear scan).
  EXPECT_EQ(r.FindTuple(40.0), &r.tuples[0]);
  EXPECT_EQ(r.FindTuple(0.0), &r.tuples[0]);
  EXPECT_EQ(r.FindTuple(100.0), &r.tuples[1]);
  EXPECT_EQ(r.FindTuple(-5.0), nullptr);
  EXPECT_EQ(r.FindTuple(105.0), nullptr);

  EXPECT_EQ(r.KnnAt(10.0), std::vector<int64_t>{1});
  EXPECT_EQ(r.KnnAt(70.0), std::vector<int64_t>{2});
  EXPECT_TRUE(r.KnnAt(-5.0).empty());

  // Frame-hoisted overloads agree with the convenience versions.
  const geom::SegmentFrame frame(r.query);
  for (double t : {0.0, 10.0, 40.0, 70.0, 100.0}) {
    EXPECT_EQ(r.KnnAt(t), r.KnnAt(t, frame)) << "t=" << t;
    EXPECT_EQ(r.OdistAt(t, 0), r.OdistAt(t, 0, frame)) << "t=" << t;
  }
  EXPECT_TRUE(std::isinf(r.OdistAt(10.0, 5)));  // rank beyond candidate set
}

}  // namespace
}  // namespace core
}  // namespace conn
