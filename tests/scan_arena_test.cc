// Scan-arena equivalence and regression suite.
//
// The arena-backed Dijkstra machinery (epoch-stamped state, grid-ring
// seeding) is a pure optimization: every observable result must be
// bit-identical to a scan on a private arena.  This file checks that
// contract directly on randomized scans — including one arena reused
// across obstacle waves with a new scan after each, the access pattern of
// IOR's Lemma-3 iterations — plus the guard against advancing a scan
// across a wave, regressions for the SettleTargets target accounting
// (duplicate ids, unreachable targets, and already-settled targets left
// beyond the consumer cursor), and, end-to-end through
// CoknnQuery/ConnQuery in both tree configurations, that the no-effect
// use_warm_scan_restarts option changes no answer and no counter.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/str_bulk_load.h"
#include "test_util.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scan-level: arena-backed scans == private-arena scans, settlement log
// compared entry by entry (v, dist, pred all exact).
// ---------------------------------------------------------------------------

std::vector<vis::DijkstraScan::Settled> Drain(vis::DijkstraScan* scan) {
  std::vector<vis::DijkstraScan::Settled> out;
  vis::VertexId v;
  double d;
  int32_t pred;
  while (scan->Next(&v, &d, &pred)) out.push_back({v, d, pred});
  return out;
}

geom::Rect RandomObstacle(Rng* rng) {
  const double x = rng->Uniform(0.0, 95.0);
  const double y = rng->Uniform(0.0, 95.0);
  const double w = rng->Uniform(0.5, 6.0);
  const double h = rng->Uniform(0.5, 6.0);
  return geom::Rect({x, y}, {x + w, y + h});
}

void ExpectSameLog(const std::vector<vis::DijkstraScan::Settled>& got,
                   const std::vector<vis::DijkstraScan::Settled>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].v, want[i].v) << "entry " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "entry " << i;
    EXPECT_EQ(got[i].pred, want[i].pred) << "entry " << i;
  }
}

TEST(ScanArenaTest, ArenaReusedAcrossObstacleWavesMatchesPrivateArena) {
  // IOR's Lemma-3 iterations on one arena: a scan settles part of the
  // graph, an obstacle wave lands, and a new scan starts on the same arena
  // over the grown graph.  2-5 waves per scene; after every wave the new
  // scan must reproduce a private-arena scan exactly, although the arena
  // still holds the stamps of the partly settled scans before it and has
  // to grow its per-vertex arrays for the new corners.
  const geom::Rect domain({-5, -5}, {105, 105});
  for (uint64_t trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(0xB0B5C + trial);
    vis::VisGraph g(domain);
    rtree::ObjectId next_id = 0;
    const size_t initial = 2 + rng.UniformU64(4);
    for (size_t i = 0; i < initial; ++i) {
      g.AddObstacle(RandomObstacle(&rng), next_id++);
    }
    const vis::VertexId target =
        g.AddFixedVertex({rng.Uniform(0, 100), rng.Uniform(0, 100)});
    const geom::Vec2 src{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const size_t vertices_before = g.VertexCount();

    vis::ScanArena arena;
    auto scan = std::make_unique<vis::DijkstraScan>(&g, src, &arena);
    const size_t waves = 2 + rng.UniformU64(4);
    for (size_t wave = 0; wave < waves; ++wave) {
      SCOPED_TRACE("wave " + std::to_string(wave));
      // Partial settlement before the wave: a target probe, as IOR's
      // SettleTargets, or a random prefix.
      if (rng.UniformU64(2) == 0) {
        scan->SettleTargets({target});
      } else {
        scan->EnsureSettled(rng.UniformU64(g.VertexCount() + 1));
      }
      const size_t extra = 1 + rng.UniformU64(4);
      for (size_t i = 0; i < extra; ++i) {
        g.AddObstacle(RandomObstacle(&rng), next_id++);
      }
      // The arena admits one live scan: destroy before starting anew.
      scan.reset();
      scan = std::make_unique<vis::DijkstraScan>(&g, src, &arena);

      vis::DijkstraScan fresh(&g, src);
      const std::vector<vis::DijkstraScan::Settled> want = Drain(&fresh);
      ExpectSameLog(Drain(scan.get()), want);
      // Replace the drained scan so the next wave lands on a partly
      // settled one again.
      scan.reset();
      scan = std::make_unique<vis::DijkstraScan>(&g, src, &arena);
    }
    EXPECT_GT(g.VertexCount(), vertices_before);
  }
}

TEST(ScanArenaDeathTest, NextAfterObstacleWaveOnLiveScanAborts) {
  // A scan reads the graph as it was when it started; advancing it across
  // an obstacle wave would settle stale paths, so PrepareTop refuses.
  const geom::Rect domain({-5, -5}, {105, 105});
  vis::VisGraph g(domain);
  g.AddObstacle(geom::Rect({40, 40}, {45, 60}), 0);
  vis::ScanArena arena;
  vis::DijkstraScan scan(&g, {10, 50}, &arena);
  vis::VertexId v;
  double d;
  int32_t pred;
  ASSERT_TRUE(scan.Next(&v, &d, &pred));
  g.AddObstacle(geom::Rect({60, 20}, {70, 25}), 1);
  EXPECT_DEATH(scan.Next(&v, &d, &pred), "start a new scan");
}

TEST(ScanArenaTest, SharedArenaScansMatchPrivateArenaScans) {
  // Consecutive scans on one arena must not leak state into each other.
  const geom::Rect domain({-5, -5}, {105, 105});
  Rng rng(0x5EED5);
  vis::VisGraph g(domain);
  for (rtree::ObjectId id = 0; id < 6; ++id) {
    g.AddObstacle(RandomObstacle(&rng), id);
  }
  vis::ScanArena arena;
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 src{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    vis::DijkstraScan pooled(&g, src, &arena);
    vis::DijkstraScan fresh(&g, src);
    SCOPED_TRACE("scan " + std::to_string(i));
    ExpectSameLog(Drain(&pooled), Drain(&fresh));
  }
}

// ---------------------------------------------------------------------------
// SettleTargets regressions.
// ---------------------------------------------------------------------------

TEST(SettleTargetsTest, DuplicateTargetsSettleNoFurtherThanUnique) {
  const geom::Rect domain({-5, -5}, {105, 105});
  vis::VisGraph g(domain);
  g.AddObstacle(geom::Rect({40, 40}, {60, 45}), 0);
  g.AddObstacle(geom::Rect({20, 60}, {25, 80}), 1);
  const vis::VertexId t = g.AddFixedVertex({50, 70});

  vis::DijkstraScan dup(&g, {10, 10});
  const double d_dup = dup.SettleTargets({t, t, t});
  vis::DijkstraScan uniq(&g, {10, 10});
  const double d_uniq = uniq.SettleTargets({t});
  EXPECT_EQ(d_dup, d_uniq);
  EXPECT_LT(d_dup, kInf);
  // The duplicate-count bug over-reported `remaining` and drained the
  // whole graph; equal settled counts prove the early stop survived.
  EXPECT_EQ(dup.SettledCount(), uniq.SettledCount());
}

TEST(SettleTargetsTest, UnreachableTargetReturnsInfinityAndTerminates) {
  const geom::Rect domain({-5, -5}, {105, 105});
  vis::VisGraph g(domain);
  // The target sits strictly inside an obstacle: every sight-line to it
  // crosses the interior, so it can never be settled.
  g.AddObstacle(geom::Rect({40, 40}, {60, 60}), 0);
  const vis::VertexId sealed = g.AddFixedVertex({50, 50});
  const vis::VertexId open = g.AddFixedVertex({80, 80});

  vis::DijkstraScan scan(&g, {10, 10});
  const double d = scan.SettleTargets({sealed, open, sealed});
  EXPECT_EQ(d, kInf);
  EXPECT_TRUE(scan.IsSettled(open));
  EXPECT_FALSE(scan.IsSettled(sealed));
  EXPECT_LT(scan.DistOf(open), kInf);
}

TEST(SettleTargetsTest, AlreadySettledTargetBeyondCursorIsNotDoubleCounted) {
  // EnsureSettled extends the log without moving the Next() cursor.  A
  // later SettleTargets call then replays already-settled entries; its
  // remaining-counter must not treat them as fresh settlements (the old
  // linear-search accounting did, stopping before the real target and
  // reporting +infinity for a reachable vertex).
  const geom::Rect domain({-5, -5}, {105, 105});
  vis::VisGraph g(domain);
  g.AddObstacle(geom::Rect({30, 10}, {35, 90}), 0);
  const vis::VertexId near_v = g.AddFixedVertex({15, 52});
  const vis::VertexId far_v = g.AddFixedVertex({90, 50});

  vis::DijkstraScan scan(&g, {10, 50});
  // Settle a prefix that includes near_v but not far_v, cursor untouched.
  ASSERT_TRUE(scan.EnsureSettled(0));
  size_t i = 0;
  while (!scan.IsSettled(near_v)) {
    ASSERT_TRUE(scan.EnsureSettled(++i));
  }
  ASSERT_FALSE(scan.IsSettled(far_v));

  const double d = scan.SettleTargets({near_v, far_v});
  EXPECT_TRUE(scan.IsSettled(far_v));
  EXPECT_LT(d, kInf);

  vis::DijkstraScan fresh(&g, {10, 50});
  EXPECT_EQ(d, fresh.SettleTargets({near_v, far_v}));
}

// ---------------------------------------------------------------------------
// Engine-level: use_warm_scan_restarts has no effect.  On and off must give
// bit-identical answers and equal integer QueryStats across randomized
// workloads (uniform + Zipf obstacles, both tree configurations, k in
// {1, 3, 5}).
// ---------------------------------------------------------------------------

struct Workload {
  datagen::DatasetPair pair;
  rtree::RStarTree tp;
  rtree::RStarTree to;
  rtree::RStarTree unified;
  std::vector<geom::Segment> queries;
};

Workload MakeWorkload(uint64_t seed, datagen::PointDistribution dist,
                      size_t num_points, size_t num_obstacles,
                      size_t num_queries, double query_length = 450.0) {
  Workload w;
  w.pair = datagen::MakeDatasetPair(dist, num_points, num_obstacles, seed);
  w.tp = rtree::StrBulkLoad(datagen::ToPointObjects(w.pair.points)).value();
  w.to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(w.pair.obstacles)).value();
  std::vector<rtree::DataObject> all = datagen::ToPointObjects(w.pair.points);
  for (const rtree::DataObject& o :
       datagen::ToObstacleObjects(w.pair.obstacles)) {
    all.push_back(o);
  }
  w.unified = rtree::StrBulkLoad(std::move(all)).value();

  datagen::WorkloadOptions wopts;
  wopts.query_length = query_length;
  w.queries = datagen::MakeWorkload(num_queries, datagen::Workspace(), wopts,
                                    {}, seed ^ 0xA9E4A);
  return w;
}

void ExpectIntervalSetsEqual(const geom::IntervalSet& got,
                             const geom::IntervalSet& want) {
  ASSERT_EQ(got.intervals().size(), want.intervals().size());
  for (size_t i = 0; i < got.intervals().size(); ++i) {
    EXPECT_EQ(got.intervals()[i].lo, want.intervals()[i].lo);
    EXPECT_EQ(got.intervals()[i].hi, want.intervals()[i].hi);
  }
}

void ExpectCoknnEqual(const core::CoknnResult& got,
                      const core::CoknnResult& want, size_t qi) {
  SCOPED_TRACE("query " + std::to_string(qi));
  ExpectIntervalSetsEqual(got.unreachable, want.unreachable);
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    const core::CoknnTuple& g = got.tuples[i];
    const core::CoknnTuple& x = want.tuples[i];
    EXPECT_EQ(g.range.lo, x.range.lo) << "tuple " << i;
    EXPECT_EQ(g.range.hi, x.range.hi) << "tuple " << i;
    ASSERT_EQ(g.candidates.size(), x.candidates.size()) << "tuple " << i;
    for (size_t c = 0; c < g.candidates.size(); ++c) {
      EXPECT_EQ(g.candidates[c].pid, x.candidates[c].pid)
          << "tuple " << i << " cand " << c;
      EXPECT_EQ(g.candidates[c].cp, x.candidates[c].cp)
          << "tuple " << i << " cand " << c;
      EXPECT_EQ(g.candidates[c].offset, x.candidates[c].offset)
          << "tuple " << i << " cand " << c;
    }
  }
}

struct Config {
  uint64_t seed;
  datagen::PointDistribution dist;
  size_t k;
  bool one_tree;
};

class ScanArenaEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(ScanArenaEquivalence, WarmRestartsMatchFreshScanReference) {
  const Config cfg = GetParam();
  // Long queries admit more obstacles per data point, so every config runs
  // several Lemma-3 waves per IOR call.
  const Workload w = MakeWorkload(cfg.seed, cfg.dist, 130, 600,
                                  /*num_queries=*/8, /*query_length=*/1500.0);
  core::ConnOptions on;
  on.use_warm_scan_restarts = true;
  core::ConnOptions off;
  off.use_warm_scan_restarts = false;

  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const core::CoknnResult got =
        core::CoknnQuery(data, obstacles, w.queries[i], cfg.k, on);
    const core::CoknnResult want =
        core::CoknnQuery(data, obstacles, w.queries[i], cfg.k, off);
    ExpectCoknnEqual(got, want, i);
    EXPECT_EQ(testutil::IntegerFields(got.stats),
              testutil::IntegerFields(want.stats))
        << "query " << i;
  }
}

TEST_P(ScanArenaEquivalence, ConnWarmRestartsMatchFreshScanReference) {
  const Config cfg = GetParam();
  const Workload w = MakeWorkload(cfg.seed ^ 0xF00D, cfg.dist, 110, 60,
                                  /*num_queries=*/6);
  core::ConnOptions on;
  on.use_warm_scan_restarts = true;
  core::ConnOptions off;
  off.use_warm_scan_restarts = false;

  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const core::ConnResult got =
        core::ConnQuery(data, obstacles, w.queries[i], on);
    const core::ConnResult want =
        core::ConnQuery(data, obstacles, w.queries[i], off);
    ExpectIntervalSetsEqual(got.unreachable, want.unreachable);
    ASSERT_EQ(got.tuples.size(), want.tuples.size());
    for (size_t t = 0; t < got.tuples.size(); ++t) {
      EXPECT_EQ(got.tuples[t].point_id, want.tuples[t].point_id);
      EXPECT_EQ(got.tuples[t].control_point, want.tuples[t].control_point);
      EXPECT_EQ(got.tuples[t].offset, want.tuples[t].offset);
      EXPECT_EQ(got.tuples[t].range.lo, want.tuples[t].range.lo);
      EXPECT_EQ(got.tuples[t].range.hi, want.tuples[t].range.hi);
    }
    EXPECT_EQ(testutil::IntegerFields(got.stats),
              testutil::IntegerFields(want.stats));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScanArenaEquivalence,
    ::testing::Values(
        Config{21, datagen::PointDistribution::kUniform, 1, false},
        Config{22, datagen::PointDistribution::kUniform, 3, false},
        Config{23, datagen::PointDistribution::kUniform, 5, true},
        Config{24, datagen::PointDistribution::kZipf, 1, true},
        Config{25, datagen::PointDistribution::kZipf, 3, false},
        Config{26, datagen::PointDistribution::kZipf, 5, false}),
    [](const ::testing::TestParamInfo<Config>& info) {
      const Config& c = info.param;
      return (c.dist == datagen::PointDistribution::kUniform ? "Uniform"
                                                             : "Zipf") +
             std::string("K") + std::to_string(c.k) +
             (c.one_tree ? "OneTree" : "TwoTrees") + "Seed" +
             std::to_string(c.seed);
    });

}  // namespace
}  // namespace conn
