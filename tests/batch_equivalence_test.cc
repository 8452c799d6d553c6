// Batch-vs-single equivalence: BatchRunner must reproduce the per-query
// engine's answers exactly — tuples, candidate sets, unreachable intervals,
// and the algorithmic per-query statistics that are invariant under
// workspace sharing (NPE and Lemma-2 terminations; obstacle/graph/Dijkstra
// counters legitimately differ because the shared graph accumulates across
// the shard, and I/O deltas are only meaningful in aggregate).
//
// Workloads are randomized per Section 5.1's recipe at test scale: uniform
// and Zipf point sets over street-rect obstacles, varying k, both tree
// configurations.  The BatchDeclinedTraffic cases cover shards the
// locality guard declines to share: their queries run as independent fresh
// queries, so even the obstacle/graph counters match the single-query
// engine exactly.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "exec/batch.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace exec {
namespace {

struct Workload {
  datagen::DatasetPair pair;
  rtree::RStarTree tp;
  rtree::RStarTree to;
  rtree::RStarTree unified;
  std::vector<geom::Segment> queries;
};

Workload MakeBatchWorkload(uint64_t seed, datagen::PointDistribution dist,
                           size_t num_points, size_t num_obstacles,
                           size_t num_queries) {
  Workload w;
  w.pair = datagen::MakeDatasetPair(dist, num_points, num_obstacles, seed);
  w.tp = rtree::StrBulkLoad(datagen::ToPointObjects(w.pair.points)).value();
  w.to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(w.pair.obstacles)).value();
  std::vector<rtree::DataObject> all =
      datagen::ToPointObjects(w.pair.points);
  for (const rtree::DataObject& o :
       datagen::ToObstacleObjects(w.pair.obstacles)) {
    all.push_back(o);
  }
  w.unified = rtree::StrBulkLoad(std::move(all)).value();

  datagen::WorkloadOptions wopts;
  wopts.query_length = 450.0;
  w.queries = datagen::MakeWorkload(num_queries, datagen::Workspace(), wopts,
                                    {}, seed ^ 0xBA7C4);
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

void ExpectConnEqual(const core::ConnResult& got, const core::ConnResult& want,
                     size_t qi) {
  SCOPED_TRACE("query " + std::to_string(qi));
  ExpectIntervalSetsEqual(got.unreachable, want.unreachable);
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    EXPECT_EQ(got.tuples[i].point_id, want.tuples[i].point_id) << "tuple " << i;
    EXPECT_EQ(got.tuples[i].control_point, want.tuples[i].control_point)
        << "tuple " << i;
    EXPECT_EQ(got.tuples[i].offset, want.tuples[i].offset) << "tuple " << i;
    EXPECT_EQ(got.tuples[i].range.lo, want.tuples[i].range.lo) << "tuple " << i;
    EXPECT_EQ(got.tuples[i].range.hi, want.tuples[i].range.hi) << "tuple " << i;
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

class BatchEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(BatchEquivalence, CoknnMatchesSingleQueryEngine) {
  const Config cfg = GetParam();
  const Workload w =
      MakeBatchWorkload(cfg.seed, cfg.dist, 140, 70, /*num_queries=*/10);

  std::vector<BatchQuery> batch;
  for (const geom::Segment& q : w.queries) {
    batch.push_back(BatchQuery::Coknn(q, cfg.k));
  }

  BatchOptions opts;
  opts.num_threads = 2;
  opts.target_shard_size = 3;
  opts.share_locality_factor = 0.0;  // force sharing: exactness is the point
  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  const BatchRunner runner(data, obstacles, opts);
  const BatchResult result = runner.Run(batch);

  ASSERT_EQ(result.outcomes.size(), w.queries.size());
  EXPECT_GT(result.stats.shard_count, 1u);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const core::CoknnResult want =
        core::CoknnQuery(data, obstacles, w.queries[i], cfg.k);
    ASSERT_TRUE(result.outcomes[i].coknn.has_value());
    ExpectCoknnEqual(*result.outcomes[i].coknn, want, i);
  }
}

TEST_P(BatchEquivalence, ConnMatchesSingleQueryEngine) {
  const Config cfg = GetParam();
  const Workload w = MakeBatchWorkload(cfg.seed ^ 0xC0FFEE, cfg.dist, 120, 60,
                                       /*num_queries=*/8);

  std::vector<BatchQuery> batch;
  for (const geom::Segment& q : w.queries) batch.push_back(BatchQuery::Conn(q));

  BatchOptions opts;
  opts.num_threads = 2;
  opts.target_shard_size = 3;
  opts.share_locality_factor = 0.0;  // force sharing: exactness is the point
  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  const BatchRunner runner(data, obstacles, opts);
  const BatchResult result = runner.Run(batch);

  for (size_t i = 0; i < w.queries.size(); ++i) {
    const core::ConnResult want =
        core::ConnQuery(data, obstacles, w.queries[i]);
    ASSERT_TRUE(result.outcomes[i].conn.has_value());
    ExpectConnEqual(*result.outcomes[i].conn, want, i);
  }
}

TEST_P(BatchEquivalence, SharedAndUnsharedWorkspacesAgree) {
  const Config cfg = GetParam();
  const Workload w =
      MakeBatchWorkload(cfg.seed ^ 0x5EED, cfg.dist, 100, 50, 6);

  std::vector<BatchQuery> batch;
  for (const geom::Segment& q : w.queries) {
    batch.push_back(BatchQuery::Coknn(q, cfg.k));
  }

  BatchOptions shared;
  shared.num_threads = 1;
  shared.target_shard_size = 3;
  shared.share_locality_factor = 0.0;
  BatchOptions unshared = shared;
  unshared.share_workspace = false;

  const rtree::RStarTree& data = cfg.one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? w.unified : w.to;
  const BatchRunner a(data, obstacles, shared);
  const BatchRunner b(data, obstacles, unshared);
  const BatchResult ra = a.Run(batch);
  const BatchResult rb = b.Run(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectCoknnEqual(*ra.outcomes[i].coknn, *rb.outcomes[i].coknn, i);
  }
  // Only the shared configuration reuses obstacles.
  EXPECT_EQ(rb.stats.obstacle_reuse_hits, 0u);
}

TEST(BatchLocalityGuard, ClusteredPointQueriesStillShare) {
  // Zero-length CONN queries (obstructed point lookups) have no MBR
  // extent of their own; the guard's obstacle-spacing floor must keep a
  // tight cluster of them on the sharing path under *default* options.
  // Hand-built scene: the lone data point sits behind a wall, so every
  // query's IOR must retrieve that wall — the first inserts it, the rest
  // hit the shared workspace.
  const rtree::RStarTree tp =
      rtree::StrBulkLoad(
          {rtree::DataObject::Point({5600.0, 5000.0}, /*id=*/0)})
          .value();
  const rtree::RStarTree to =
      rtree::StrBulkLoad({rtree::DataObject::Obstacle(
                             geom::Rect({5200, 4800}, {5300, 5200}), /*id=*/0)})
          .value();

  std::vector<BatchQuery> batch;
  for (int i = 0; i < 6; ++i) {
    const geom::Vec2 p{5000.0 + 10.0 * i, 5000.0 + 5.0 * i};
    batch.push_back(BatchQuery::Conn(geom::Segment(p, p)));
  }

  const BatchRunner runner(tp, to, BatchOptions{});
  const BatchResult result = runner.Run(batch);
  EXPECT_GT(result.stats.obstacle_reuse_hits, 0u)
      << "the locality guard disabled sharing for a tight point cluster";
  for (size_t i = 0; i < batch.size(); ++i) {
    const core::ConnResult want = core::ConnQuery(tp, to, batch[i].segment);
    ASSERT_TRUE(result.outcomes[i].conn.has_value());
    ExpectConnEqual(*result.outcomes[i].conn, want, i);
  }
}

/// The exact per-query work counters.  A query the locality guard declines
/// runs on its own fresh graph, so these match a standalone query exactly
/// (unlike a shared-workspace query, whose graph accumulates across its
/// shard).
void ExpectSameWork(const QueryStats& got, const QueryStats& want,
                    size_t qi) {
  SCOPED_TRACE("query " + std::to_string(qi));
  EXPECT_EQ(got.points_evaluated, want.points_evaluated);
  EXPECT_EQ(got.obstacles_evaluated, want.obstacles_evaluated);
  EXPECT_EQ(got.vis_graph_vertices, want.vis_graph_vertices);
  EXPECT_EQ(got.visibility_tests, want.visibility_tests);
}

/// Checks outcome \p qi against the standalone engine: answers always,
/// and the exact work counters when \p fresh (the query did not share).
void ExpectMatchesStandalone(const Workload& w, bool one_tree,
                             const BatchQuery& q, const QueryOutcome& out,
                             size_t qi, bool fresh) {
  const rtree::RStarTree& data = one_tree ? w.unified : w.tp;
  const rtree::RStarTree& obstacles = one_tree ? w.unified : w.to;
  if (q.kind == BatchQuery::Kind::kConn) {
    const core::ConnResult want = core::ConnQuery(data, obstacles, q.segment);
    ASSERT_TRUE(out.conn.has_value());
    ExpectConnEqual(*out.conn, want, qi);
    if (fresh) ExpectSameWork(out.conn->stats, want.stats, qi);
  } else {
    const core::CoknnResult want =
        core::CoknnQuery(data, obstacles, q.segment, q.k);
    ASSERT_TRUE(out.coknn.has_value());
    ExpectCoknnEqual(*out.coknn, want, qi);
    if (fresh) ExpectSameWork(out.coknn->stats, want.stats, qi);
  }
}

const QueryStats& OutcomeStats(const QueryOutcome& out) {
  return out.conn.has_value() ? out.conn->stats : out.coknn->stats;
}

TEST(BatchDeclinedTraffic, DispersedQueriesSpreadOverPoolAndRunFresh) {
  // A dispersed batch under a guard that declines every shard: each query
  // is its own work item on the engine's own fresh graph, so answers and
  // exact work counters match the standalone engine at any thread count.
  const Workload w = MakeBatchWorkload(
      31, datagen::PointDistribution::kUniform, 140, 70, /*num_queries=*/20);
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    batch.push_back(i < 16 ? BatchQuery::Coknn(w.queries[i], 3)
                           : BatchQuery::Conn(w.queries[i]));
  }

  BatchOptions opts;
  opts.target_shard_size = 8;
  opts.share_locality_factor = 1e-9;
  for (const bool one_tree : {false, true}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE((one_tree ? "1-tree, " : "2-tree, ") +
                   std::to_string(threads) + " threads");
      opts.num_threads = threads;
      const BatchRunner runner(one_tree ? w.unified : w.tp,
                               one_tree ? w.unified : w.to, opts);
      const BatchResult result = runner.Run(batch);
      EXPECT_EQ(result.stats.threads_used, threads);
      EXPECT_EQ(result.stats.obstacles_inserted, 0u)
          << "a declined shard built a shared workspace";
      EXPECT_EQ(result.stats.obstacle_reuse_hits, 0u);
      for (size_t i = 0; i < batch.size(); ++i) {
        ExpectMatchesStandalone(w, one_tree, batch[i], result.outcomes[i], i,
                                /*fresh=*/true);
      }
    }
  }

  // Two declined shards of 8 keep all four workers busy (a shard-per-item
  // schedule would use only two).
  opts.num_threads = 4;
  const std::vector<BatchQuery> coknn(batch.begin(), batch.begin() + 16);
  const BatchResult result = BatchRunner(w.tp, w.to, opts).Run(coknn);
  EXPECT_EQ(result.stats.shard_count, 2u);
  EXPECT_EQ(result.stats.threads_used, 4u);
}

TEST(BatchDeclinedTraffic, MixedSharingAndDeclinedShards) {
  // One tight cluster (left) that shares and one dispersed group (right)
  // the guard declines; STR puts each in its own shard of 8.  Declined
  // queries match the standalone engine's work counters exactly; the
  // sharing shard runs its queries in order on one workspace, so its
  // counters are the same at every thread count.
  const Workload w = MakeBatchWorkload(
      32, datagen::PointDistribution::kUniform, 140, 400, /*num_queries=*/0);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 a{2000.0 + 20.0 * i, 7000.0 + 15.0 * i};
    batch.push_back(
        BatchQuery::Coknn(geom::Segment(a, {a.x + 200.0, a.y + 150.0}), 2));
  }
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 a{5500.0 + 550.0 * i, 800.0 + 1150.0 * i};
    const geom::Segment seg(a, {a.x + 300.0, a.y - 200.0});
    batch.push_back(i % 2 == 0 ? BatchQuery::Coknn(seg, 2)
                               : BatchQuery::Conn(seg));
  }

  BatchOptions opts;
  opts.target_shard_size = 8;
  // The guard's extent floor is 8 obstacle spacings (about 3980 here), so
  // the cluster (cover 340 x 255) shares below 0.1 x 3980 and the
  // dispersed group (cover 8250 wide) does not.  The cluster sits where
  // its segments' paths pass obstacles, so IOR admits some for it to share.
  opts.share_locality_factor = 0.1;
  std::vector<QueryStats> single_worker;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    opts.num_threads = threads;
    const BatchResult result = BatchRunner(w.tp, w.to, opts).Run(batch);
    EXPECT_EQ(result.stats.shard_count, 2u);
    // One item for the sharing shard plus eight for the declined one.
    EXPECT_EQ(result.stats.threads_used, threads);
    EXPECT_GT(result.stats.obstacles_inserted, 0u)
        << "the clustered shard did not share";
    EXPECT_GT(result.stats.obstacle_reuse_hits, 0u);
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectMatchesStandalone(w, /*one_tree=*/false, batch[i],
                              result.outcomes[i], i, /*fresh=*/i >= 8);
      const QueryStats& stats = OutcomeStats(result.outcomes[i]);
      if (threads == 1) {
        single_worker.push_back(stats);
      } else {
        ExpectSameWork(stats, single_worker[i], i);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchEquivalence,
    ::testing::Values(
        Config{11, datagen::PointDistribution::kUniform, 1, false},
        Config{12, datagen::PointDistribution::kUniform, 3, false},
        Config{13, datagen::PointDistribution::kUniform, 3, true},
        Config{14, datagen::PointDistribution::kZipf, 1, false},
        Config{15, datagen::PointDistribution::kZipf, 5, false},
        Config{16, datagen::PointDistribution::kZipf, 3, true}),
    [](const ::testing::TestParamInfo<Config>& info) {
      const Config& c = info.param;
      return (c.dist == datagen::PointDistribution::kUniform ? "Uniform"
                                                             : "Zipf") +
             std::string("K") + std::to_string(c.k) +
             (c.one_tree ? "OneTree" : "TwoTrees") + "Seed" +
             std::to_string(c.seed);
    });

}  // namespace
}  // namespace exec
}  // namespace conn
