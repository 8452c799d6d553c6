// Scan-arena equivalence and regression suite.
//
// The arena-backed Dijkstra machinery (epoch-stamped state, grid-ring
// seeding, warm IOR restarts via DijkstraScan::Revalidate) is a pure
// optimization: every observable result must be bit-identical to the
// fresh-scan reference path.  This file checks that contract at two
// levels — directly on randomized scans interrupted by obstacle waves,
// and end-to-end through CoknnQuery/ConnQuery in both tree configurations
// with warm restarts on vs. off — plus regressions for the SettleTargets
// target-accounting rewrite (duplicate ids, unreachable targets, and
// already-settled targets left beyond the consumer cursor).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/str_bulk_load.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scan-level: Revalidate() after obstacle waves == fresh scan on the grown
// graph, settlement log compared entry by entry (v, dist, pred all exact).
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

TEST(ScanArenaWarmTest, RevalidateMatchesFreshScanOnRandomScenes) {
  const geom::Rect domain({-5, -5}, {105, 105});
  for (uint64_t trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(0xA1E7A + trial);
    vis::VisGraph g(domain);
    rtree::ObjectId next_id = 0;
    const size_t initial = 3 + rng.UniformU64(5);
    for (size_t i = 0; i < initial; ++i) {
      g.AddObstacle(RandomObstacle(&rng), next_id++);
    }
    const geom::Vec2 src{rng.Uniform(0, 100), rng.Uniform(0, 100)};

    vis::ScanArena arena;
    vis::DijkstraScan warm(&g, src, &arena);
    // Two obstacle waves with partial settlement in between, like IOR's
    // Lemma-3 iterations.
    for (int wave = 0; wave < 2; ++wave) {
      warm.EnsureSettled(rng.UniformU64(g.VertexCount() + 1));
      const size_t extra = 1 + rng.UniformU64(4);
      for (size_t i = 0; i < extra; ++i) {
        g.AddObstacle(RandomObstacle(&rng), next_id++);
      }
      warm.Revalidate();
    }
    const auto got = Drain(&warm);

    vis::DijkstraScan fresh(&g, src);
    const auto want = Drain(&fresh);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].v, want[i].v) << "entry " << i;
      EXPECT_EQ(got[i].dist, want[i].dist) << "entry " << i;
      EXPECT_EQ(got[i].pred, want[i].pred) << "entry " << i;
    }
  }
}

TEST(ScanArenaWarmTest, MultiWaveRevalidateMatchesFreshScanAfterEveryWave) {
  // The tick loop re-drives Revalidate on a long-lived scan arena wave
  // after wave; one warm restart being exact does not imply the fifth is
  // (rollback bookkeeping compounds).  2-5 successive waves on one live
  // scan, fully drained and checked against a fresh scan after EVERY
  // wave: same settled count, and bit-identical distance per vertex.
  const geom::Rect domain({-5, -5}, {105, 105});
  for (uint64_t trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(0xB0B5C + trial);
    vis::VisGraph g(domain);
    rtree::ObjectId next_id = 0;
    const size_t initial = 2 + rng.UniformU64(4);
    for (size_t i = 0; i < initial; ++i) {
      g.AddObstacle(RandomObstacle(&rng), next_id++);
    }
    const geom::Vec2 src{rng.Uniform(0, 100), rng.Uniform(0, 100)};

    vis::ScanArena arena;
    vis::DijkstraScan warm(&g, src, &arena);
    Drain(&warm);  // settle everything before the first wave

    const size_t waves = 2 + rng.UniformU64(4);
    for (size_t wave = 0; wave < waves; ++wave) {
      SCOPED_TRACE("wave " + std::to_string(wave));
      const size_t extra = 1 + rng.UniformU64(4);
      for (size_t i = 0; i < extra; ++i) {
        g.AddObstacle(RandomObstacle(&rng), next_id++);
      }
      warm.Revalidate();
      Drain(&warm);

      vis::DijkstraScan fresh(&g, src);
      const auto want = Drain(&fresh);
      ASSERT_EQ(warm.SettledCount(), want.size());
      for (const vis::DijkstraScan::Settled& e : want) {
        ASSERT_TRUE(warm.IsSettled(e.v)) << "vertex " << e.v;
        EXPECT_EQ(warm.DistOf(e.v), e.dist) << "vertex " << e.v;
      }
    }
  }
}

TEST(ScanArenaWarmTest, MultiWaveRevalidateWithTargetsMatchesFreshScan) {
  // Same multi-wave growth, but interleaved with partial settlement and
  // SettleTargets probes — the access pattern CPLC drives between IOR
  // waves.  The warm target distance after every wave must equal a fresh
  // scan's.
  const geom::Rect domain({-5, -5}, {105, 105});
  for (uint64_t trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(0x7A46E7 + trial);
    vis::VisGraph g(domain);
    rtree::ObjectId next_id = 0;
    const size_t initial = 2 + rng.UniformU64(4);
    for (size_t i = 0; i < initial; ++i) {
      g.AddObstacle(RandomObstacle(&rng), next_id++);
    }
    const vis::VertexId target =
        g.AddFixedVertex({rng.Uniform(0, 100), rng.Uniform(0, 100)});
    const geom::Vec2 src{rng.Uniform(0, 100), rng.Uniform(0, 100)};

    vis::ScanArena arena;
    vis::DijkstraScan warm(&g, src, &arena);
    const size_t waves = 2 + rng.UniformU64(4);
    for (size_t wave = 0; wave < waves; ++wave) {
      SCOPED_TRACE("wave " + std::to_string(wave));
      warm.EnsureSettled(rng.UniformU64(g.VertexCount() + 1));
      const size_t extra = 1 + rng.UniformU64(4);
      for (size_t i = 0; i < extra; ++i) {
        g.AddObstacle(RandomObstacle(&rng), next_id++);
      }
      warm.Revalidate();
      const double got = warm.SettleTargets({target});

      vis::DijkstraScan fresh(&g, src);
      EXPECT_EQ(got, fresh.SettleTargets({target}));
    }
  }
}

TEST(ScanArenaWarmTest, RevalidateKeepsConsumedPrefixReadable) {
  // Revalidate must clamp the consumer cursor into the truncated log and
  // keep Next() producing the exact fresh-scan sequence afterwards.
  const geom::Rect domain({-5, -5}, {105, 105});
  vis::VisGraph g(domain);
  g.AddObstacle(geom::Rect({40, 40}, {45, 60}), 0);
  g.AddObstacle(geom::Rect({60, 20}, {70, 25}), 1);
  const geom::Vec2 src{10, 50};

  vis::ScanArena arena;
  vis::DijkstraScan warm(&g, src, &arena);
  // Consume a few entries through the public cursor API.
  vis::VertexId v;
  double d;
  int32_t pred;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(warm.Next(&v, &d, &pred));
  // Wave lands near the source: most of the log rolls back.
  g.AddObstacle(geom::Rect({12, 48}, {14, 52}), 2);
  warm.Revalidate();
  std::vector<vis::DijkstraScan::Settled> tail = Drain(&warm);

  vis::DijkstraScan fresh(&g, src);
  const auto want = Drain(&fresh);
  // The warm tail must be a suffix of the fresh log (the consumed prefix
  // was read before the cursor clamp), matching entry for entry.
  ASSERT_LE(tail.size(), want.size());
  const size_t offset = want.size() - tail.size();
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].v, want[offset + i].v) << "entry " << i;
    EXPECT_EQ(tail[i].dist, want[offset + i].dist) << "entry " << i;
    EXPECT_EQ(tail[i].pred, want[offset + i].pred) << "entry " << i;
  }
  // And the prefix the warm scan reported before the wave agrees with the
  // fresh log's prefix distances via the settled accessors.
  for (size_t i = 0; i < offset; ++i) {
    EXPECT_TRUE(warm.IsSettled(want[i].v));
    EXPECT_EQ(warm.DistOf(want[i].v), want[i].dist);
  }
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
    const auto got = Drain(&pooled);
    const auto want = Drain(&fresh);
    ASSERT_EQ(got.size(), want.size()) << "scan " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].v, want[j].v);
      EXPECT_EQ(got[j].dist, want[j].dist);
      EXPECT_EQ(got[j].pred, want[j].pred);
    }
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
// Engine-level: warm restarts vs. the fresh-scan reference path must agree
// bit for bit across randomized workloads (uniform + Zipf obstacles, both
// tree configurations, k in {1, 3, 5}).
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
  EXPECT_EQ(got.stats.points_evaluated, want.stats.points_evaluated);
  EXPECT_EQ(got.stats.lemma2_terminations, want.stats.lemma2_terminations);
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
  // Long queries admit more obstacles per data point, so in every config
  // some warm restart keeps part of the scan.
  const Workload w = MakeWorkload(cfg.seed, cfg.dist, 130, 600,
                                  /*num_queries=*/8, /*query_length=*/1500.0);
  core::ConnOptions warm;
  warm.use_warm_scan_restarts = true;
  core::ConnOptions cold;
  cold.use_warm_scan_restarts = false;

  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  QueryStats warm_totals;
  QueryStats cold_totals;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const core::CoknnResult got =
        core::CoknnQuery(data, obstacles, w.queries[i], cfg.k, warm);
    const core::CoknnResult want =
        core::CoknnQuery(data, obstacles, w.queries[i], cfg.k, cold);
    ExpectCoknnEqual(got, want, i);
    warm_totals += got.stats;
    cold_totals += want.stats;
  }
  // The comparison must actually exercise warm restarts, and the reference
  // path must never take one.
  EXPECT_GT(warm_totals.scan_warm_restarts, 0u);
  EXPECT_EQ(cold_totals.scan_warm_restarts, 0u);
  // A warm restart replaces a full re-scan: the warm path must do strictly
  // less settlement work.
  EXPECT_LT(warm_totals.dijkstra_settled, cold_totals.dijkstra_settled);
}

TEST_P(ScanArenaEquivalence, ConnWarmRestartsMatchFreshScanReference) {
  const Config cfg = GetParam();
  const Workload w = MakeWorkload(cfg.seed ^ 0xF00D, cfg.dist, 110, 60,
                                  /*num_queries=*/6);
  core::ConnOptions warm;
  warm.use_warm_scan_restarts = true;
  core::ConnOptions cold;
  cold.use_warm_scan_restarts = false;

  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const core::ConnResult got =
        core::ConnQuery(data, obstacles, w.queries[i], warm);
    const core::ConnResult want =
        core::ConnQuery(data, obstacles, w.queries[i], cold);
    ExpectIntervalSetsEqual(got.unreachable, want.unreachable);
    ASSERT_EQ(got.tuples.size(), want.tuples.size());
    for (size_t t = 0; t < got.tuples.size(); ++t) {
      EXPECT_EQ(got.tuples[t].point_id, want.tuples[t].point_id);
      EXPECT_EQ(got.tuples[t].control_point, want.tuples[t].control_point);
      EXPECT_EQ(got.tuples[t].offset, want.tuples[t].offset);
      EXPECT_EQ(got.tuples[t].range.lo, want.tuples[t].range.lo);
      EXPECT_EQ(got.tuples[t].range.hi, want.tuples[t].range.hi);
    }
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
