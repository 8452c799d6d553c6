// Tests for the obstructed join family (e-distance join, closest pairs,
// semi-join) against brute-force oracles.

#include <array>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/naive.h"
#include "core/obstructed_join.h"
#include "datagen/datasets.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

struct JoinScene {
  std::vector<geom::Vec2> a, b;
  std::vector<geom::Rect> obstacles;
  rtree::RStarTree ta, tb, to;
};

JoinScene MakeJoinScene(uint64_t seed, size_t na, size_t nb, size_t no) {
  Rng rng(seed);
  JoinScene s;
  for (size_t i = 0; i < no; ++i) {
    const geom::Vec2 lo{rng.Uniform(50, 900), rng.Uniform(50, 900)};
    s.obstacles.push_back(geom::Rect(
        lo, {lo.x + rng.Uniform(5, 100), lo.y + rng.Uniform(5, 100)}));
  }
  for (size_t i = 0; i < na; ++i) {
    s.a.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  for (size_t i = 0; i < nb; ++i) {
    s.b.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  datagen::DisplacePointsOutsideObstacles(&s.a, s.obstacles, seed ^ 1);
  datagen::DisplacePointsOutsideObstacles(&s.b, s.obstacles, seed ^ 2);
  s.ta = std::move(rtree::StrBulkLoad(datagen::ToPointObjects(s.a))).value();
  s.tb = std::move(rtree::StrBulkLoad(datagen::ToPointObjects(s.b))).value();
  s.to = std::move(rtree::StrBulkLoad(datagen::ToObstacleObjects(s.obstacles)))
             .value();
  return s;
}

TEST(ObstructedJoinTest, WallSeparatesAnEuclideanPair) {
  JoinScene s;
  s.a = {{0, 0}};
  s.b = {{0, 30}, {40, 0}};
  s.obstacles = {geom::Rect({-50, 10}, {50, 20})};
  s.ta = std::move(rtree::StrBulkLoad(datagen::ToPointObjects(s.a))).value();
  s.tb = std::move(rtree::StrBulkLoad(datagen::ToPointObjects(s.b))).value();
  s.to = std::move(rtree::StrBulkLoad(datagen::ToObstacleObjects(s.obstacles)))
             .value();

  // e = 45: Euclidean would join both partners; the wall leaves only b1.
  const JoinResult r = ObstructedEDistanceJoin(s.ta, s.tb, s.to, 45.0);
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs[0].b_pid, 1);
  EXPECT_NEAR(r.pairs[0].odist, 40.0, 1e-9);

  // The closest pair is likewise (a0, b1).
  const JoinResult cp = ObstructedClosestPairs(s.ta, s.tb, s.to, 1);
  ASSERT_EQ(cp.pairs.size(), 1u);
  EXPECT_EQ(cp.pairs[0].b_pid, 1);
}

class JoinVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinVsOracle, EDistanceJoinMatchesBruteForce) {
  JoinScene s = MakeJoinScene(GetParam(), 15, 15, 12);
  const NaiveOracle oracle(s.b, s.obstacles);
  const double e = 250.0;
  const JoinResult got = ObstructedEDistanceJoin(s.ta, s.tb, s.to, e);

  std::set<std::pair<int64_t, int64_t>> want;
  for (size_t i = 0; i < s.a.size(); ++i) {
    const std::vector<double> dists = oracle.OdistToAllPoints(s.a[i]);
    for (size_t j = 0; j < dists.size(); ++j) {
      if (dists[j] <= e - 1e-6) {
        want.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> got_set;
  for (const JoinPair& p : got.pairs) {
    got_set.insert({p.a_pid, p.b_pid});
    // Every reported distance must be correct.
    EXPECT_NEAR(p.odist, oracle.OdistToPoint(s.a[p.a_pid], p.b_pid),
                1e-5 * (1 + p.odist));
  }
  for (const auto& w : want) {
    EXPECT_TRUE(got_set.count(w))
        << "missing pair (" << w.first << "," << w.second << ")";
  }
  // Ascending order.
  for (size_t i = 1; i < got.pairs.size(); ++i) {
    EXPECT_GE(got.pairs[i].odist, got.pairs[i - 1].odist);
  }
}

TEST_P(JoinVsOracle, ClosestPairsMatchBruteForce) {
  JoinScene s = MakeJoinScene(GetParam() ^ 0xC1, 12, 12, 10);
  const NaiveOracle oracle(s.b, s.obstacles);
  const size_t k = 4;
  const JoinResult got = ObstructedClosestPairs(s.ta, s.tb, s.to, k);

  std::vector<double> all;
  for (const auto& ap : s.a) {
    for (double d : oracle.OdistToAllPoints(ap)) {
      if (std::isfinite(d)) all.push_back(d);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(got.pairs.size(), std::min(k, all.size()));
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    EXPECT_NEAR(got.pairs[i].odist, all[i], 1e-5 * (1 + all[i]))
        << "rank " << i;
  }
}

TEST_P(JoinVsOracle, SemiJoinMatchesPerPointOnn) {
  JoinScene s = MakeJoinScene(GetParam() ^ 0x5E, 10, 20, 10);
  const NaiveOracle oracle(s.b, s.obstacles);
  const JoinResult got = ObstructedSemiJoin(s.ta, s.tb, s.to);

  size_t idx = 0;
  for (size_t i = 0; i < s.a.size(); ++i) {
    const auto want = oracle.OnnAt(s.a[i], 1);
    if (want.empty()) continue;  // unreachable left point omitted
    ASSERT_LT(idx, got.pairs.size());
    EXPECT_EQ(got.pairs[idx].a_pid, static_cast<int64_t>(i));
    EXPECT_NEAR(got.pairs[idx].odist, want[0].second,
                1e-5 * (1 + want[0].second));
    ++idx;
  }
  EXPECT_EQ(idx, got.pairs.size());
}

/// Same pairs, in the same order, with bit-identical distances.
void ExpectSamePairs(const JoinResult& got, const JoinResult& want) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].a_pid, want.pairs[i].a_pid) << "rank " << i;
    EXPECT_EQ(got.pairs[i].b_pid, want.pairs[i].b_pid) << "rank " << i;
    EXPECT_EQ(got.pairs[i].odist, want.pairs[i].odist) << "rank " << i;
  }
}

// use_warm_scan_restarts has no effect: every join gives bit-identical
// pairs and equal integer QueryStats with it on and off.
TEST_P(JoinVsOracle, WarmRestartsOffIsTheReferencePath) {
  ConnOptions on;
  on.use_warm_scan_restarts = true;
  ConnOptions off;
  off.use_warm_scan_restarts = false;
  auto expect_same = [](const JoinResult& got, const JoinResult& want) {
    ExpectSamePairs(got, want);
    EXPECT_EQ(testutil::IntegerFields(got.stats),
              testutil::IntegerFields(want.stats));
  };

  JoinScene s = MakeJoinScene(GetParam(), 15, 15, 12);
  expect_same(ObstructedEDistanceJoin(s.ta, s.tb, s.to, 250.0, on),
              ObstructedEDistanceJoin(s.ta, s.tb, s.to, 250.0, off));

  JoinScene c = MakeJoinScene(GetParam() ^ 0xC1, 12, 12, 10);
  expect_same(ObstructedClosestPairs(c.ta, c.tb, c.to, 4, on),
              ObstructedClosestPairs(c.ta, c.tb, c.to, 4, off));
  expect_same(ObstructedSemiJoin(c.ta, c.tb, c.to, on),
              ObstructedSemiJoin(c.ta, c.tb, c.to, off));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinVsOracle, ::testing::Range<uint64_t>(1, 7));

// The semi-join runs one ONN per left object and then reports the run's
// I/O as the three pagers' deltas; each counter, readahead included, is
// counted once.
TEST(ObstructedJoinTest, SemiJoinCountsEachPageOnce) {
  JoinScene s = MakeJoinScene(7, 30, 2000, 400);
  storage::BufferOptions buffer;
  buffer.capacity_pages = 8;
  buffer.readahead_pages = 2;
  const std::vector<const rtree::RStarTree*> trees = {&s.ta, &s.tb, &s.to};
  for (const rtree::RStarTree* t : trees) t->pager().ConfigureBuffer(buffer);
  // Per tree: faults, hits, prefetch issued, prefetch hits, prefetch wasted.
  auto snapshot = [&] {
    std::vector<std::array<uint64_t, 5>> out;
    for (const rtree::RStarTree* t : trees) {
      const storage::Pager& p = t->pager();
      out.push_back({p.faults(), p.hits(), p.prefetch_issued(),
                     p.prefetch_hits(), p.prefetch_wasted()});
    }
    return out;
  };
  const auto before = snapshot();
  const JoinResult r = ObstructedSemiJoin(s.ta, s.tb, s.to);
  const auto after = snapshot();
  // Delta of counter c summed over trees [first, last): A, B, obstacles.
  auto delta = [&](size_t c, size_t first = 0, size_t last = 3) {
    uint64_t sum = 0;
    for (size_t i = first; i < last; ++i) sum += after[i][c] - before[i][c];
    return sum;
  };
  EXPECT_EQ(r.stats.data_page_reads, delta(0, 0, 2));
  EXPECT_EQ(r.stats.obstacle_page_reads, delta(0, 2, 3));
  EXPECT_EQ(r.stats.buffer_hits, delta(1));
  EXPECT_GT(delta(2), 0u);
  EXPECT_EQ(r.stats.prefetch_issued, delta(2));
  EXPECT_EQ(r.stats.prefetch_hits, delta(3));
  EXPECT_EQ(r.stats.prefetch_wasted, delta(4));
}

}  // namespace
}  // namespace core
}  // namespace conn
