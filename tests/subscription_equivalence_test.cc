// Tick-loop-vs-independent equivalence: the subscription service's
// incremental tick loop — carried per-shard workspaces, guard-declined
// clients run fresh, and the stationary-segment memo — must reproduce an
// independent per-tick COkNN evaluation bit-identically: tuples, candidate
// sets (pid, control point, offset), and unreachable intervals.  Per-query
// work counters legitimately differ (that the warm path does *less* work is
// its point), so unlike batch_equivalence_test no stats are compared.
//
// Fleets are randomized at test scale: clustered depot routes over street
// rects and uniform/Zipf points, k in {1, 3, 5}, both tree configurations,
// warm starts on and off, 1 and 4 worker threads, with mid-run membership
// churn (subscribe + unsubscribe) and stationary clients (completed routes)
// so resharding and the memo both participate.
//
// SubscriptionFold checks the tick's accounting instead of its answers: the
// stats a tick folds are the same at 1 and 4 worker threads.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "datagen/fleet.h"
#include "exec/subscription.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace exec {
namespace {

struct Scene {
  datagen::DatasetPair pair;
  rtree::RStarTree tp;
  rtree::RStarTree to;
  rtree::RStarTree unified;
  std::vector<RouteSpec> routes;
};

Scene MakeScene(uint64_t seed, datagen::PointDistribution dist,
                size_t num_points, size_t num_obstacles, size_t num_clients) {
  Scene s;
  s.pair = datagen::MakeDatasetPair(dist, num_points, num_obstacles, seed);
  s.tp = rtree::StrBulkLoad(datagen::ToPointObjects(s.pair.points)).value();
  s.to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(s.pair.obstacles)).value();
  std::vector<rtree::DataObject> all = datagen::ToPointObjects(s.pair.points);
  for (const rtree::DataObject& o :
       datagen::ToObstacleObjects(s.pair.obstacles)) {
    all.push_back(o);
  }
  s.unified = rtree::StrBulkLoad(std::move(all)).value();

  datagen::FleetOptions fopts;
  fopts.pattern = datagen::FleetPattern::kClustered;
  fopts.depots = 2;
  fopts.depot_radius = 300.0;
  fopts.waypoints_per_route = 3;
  fopts.leg_length = 300.0;
  fopts.speed = 64.0;
  for (datagen::FleetRoute& r : datagen::MakeFleetRoutes(
           num_clients, datagen::Workspace(), fopts, seed ^ 0xF1EE7)) {
    // Every fourth client is stationary (a completed route): its identical
    // segment every tick exercises the memo path.
    if (s.routes.size() % 4 == 3) r.waypoints.resize(1);
    s.routes.push_back(RouteSpec{std::move(r.waypoints), r.speed});
  }
  return s;
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
                      const core::CoknnResult& want) {
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

TEST(SubscriptionApiTest, RejectsMalformedRoutesAndUnknownClients) {
  const Scene scene =
      MakeScene(31, datagen::PointDistribution::kUniform, 40, 20, 2);
  SubscriptionService service(scene.tp, scene.to, SubscriptionOptions{});

  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(service.Subscribe(RouteSpec{{}, 1.0}, 1).ok());
  EXPECT_FALSE(
      service.Subscribe(RouteSpec{{{0.0, 0.0}, {kInf, 0.0}}, 1.0}, 1).ok());
  EXPECT_FALSE(service.Subscribe(RouteSpec{{{0.0, 0.0}}, 0.0}, 1).ok());
  EXPECT_FALSE(service.Subscribe(RouteSpec{{{0.0, 0.0}}, 1.0}, 0).ok());
  EXPECT_EQ(service.Unsubscribe(12345).code(), StatusCode::kNotFound);

  // An empty service still ticks (and counts ticks).
  const TickResult empty = service.Tick();
  EXPECT_TRUE(empty.updates.empty());
  EXPECT_EQ(service.ticks(), 1u);

  const int64_t id = service.Subscribe(scene.routes[0], 1).value();
  EXPECT_EQ(service.live_clients(), 1u);
  EXPECT_EQ(service.quarantined_clients(), 0u);
  EXPECT_TRUE(service.Unsubscribe(id).ok());
  EXPECT_EQ(service.live_clients(), 0u);
}

struct Config {
  uint64_t seed;
  datagen::PointDistribution dist;
  size_t k;
  bool one_tree;
  bool warm;
  size_t threads;
};

class SubscriptionEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(SubscriptionEquivalence, TickLoopMatchesIndependentEvaluation) {
  const Config cfg = GetParam();
  const Scene scene =
      MakeScene(cfg.seed, cfg.dist, 140, 70, /*num_clients=*/8);

  SubscriptionOptions opts;
  opts.batch.num_threads = cfg.threads;
  opts.batch.target_shard_size = 3;
  opts.batch.share_locality_factor = 0.0;  // force sharing: exactness bar
  opts.batch.query.use_tick_warm_start = cfg.warm;
  opts.reshard_period = 3;  // small: resharding participates mid-run

  const rtree::RStarTree& data = cfg.one_tree ? scene.unified : scene.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? scene.unified : scene.to;
  SubscriptionService service(data, obstacles, opts);
  std::vector<int64_t> ids;
  for (const RouteSpec& r : scene.routes) {
    ids.push_back(service.Subscribe(r, cfg.k).value());
  }

  uint64_t warm_starts = 0;
  for (uint64_t tick = 0; tick < 6; ++tick) {
    // Mid-run membership churn: the sticky assignment must rebuild
    // without disturbing exactness.
    if (tick == 2) {
      ASSERT_TRUE(service.Unsubscribe(ids[1]).ok());
      ids.push_back(service.Subscribe(scene.routes[1], cfg.k).value());
    }

    const TickResult result = service.Tick();
    ASSERT_EQ(result.tick, tick);
    ASSERT_EQ(result.updates.size(), size_t{8});
    EXPECT_EQ(result.quarantined_now, size_t{0});
    warm_starts += result.stats.per_query_totals.tick_warm_starts;

    for (const ClientUpdate& u : result.updates) {
      SCOPED_TRACE("tick " + std::to_string(tick) + " client " +
                   std::to_string(u.client));
      ASSERT_TRUE(u.status.ok());
      ASSERT_TRUE(u.result.has_value());
      EXPECT_EQ(u.result->query, u.segment);
      const core::CoknnResult want =
          core::CoknnQuery(data, obstacles, u.segment, cfg.k);
      ExpectCoknnEqual(*u.result, want);
    }
  }
  if (cfg.warm) {
    EXPECT_GT(warm_starts, 0u) << "warm path never engaged";
  } else {
    EXPECT_EQ(warm_starts, 0u) << "warm path ran despite the gate";
  }
}

/// Every integer field of QueryStats, by name.  A query's I/O fields count
/// only its own thread's page fetches; the prefetch_* fields are process-
/// wide but stay 0 without readahead.
std::vector<std::pair<std::string, uint64_t>> IntegerFields(
    const QueryStats& s) {
  return {{"data_page_reads", s.data_page_reads},
          {"obstacle_page_reads", s.obstacle_page_reads},
          {"buffer_hits", s.buffer_hits},
          {"prefetch_issued", s.prefetch_issued},
          {"prefetch_hits", s.prefetch_hits},
          {"prefetch_wasted", s.prefetch_wasted},
          {"points_evaluated", s.points_evaluated},
          {"obstacles_evaluated", s.obstacles_evaluated},
          {"vis_graph_vertices", s.vis_graph_vertices},
          {"dijkstra_runs", s.dijkstra_runs},
          {"dijkstra_settled", s.dijkstra_settled},
          {"visibility_tests", s.visibility_tests},
          {"seed_tests", s.seed_tests},
          {"scan_warm_restarts", s.scan_warm_restarts},
          {"tick_warm_starts", s.tick_warm_starts},
          {"tick_frontier_reuse", s.tick_frontier_reuse},
          {"cross_shard_store_hits", s.cross_shard_store_hits},
          {"repairs_applied", s.repairs_applied},
          {"tuples_carried", s.tuples_carried},
          {"tuples_rescored", s.tuples_rescored},
          {"frontier_shares", s.frontier_shares},
          {"vr_cache_evictions", s.vr_cache_evictions},
          {"split_evaluations", s.split_evaluations},
          {"lemma1_prunes", s.lemma1_prunes},
          {"lemma7_terminations", s.lemma7_terminations},
          {"lemma2_terminations", s.lemma2_terminations}};
}

/// Every integer field of BatchStats except threads_used, which differs
/// between thread counts by definition.
std::vector<std::pair<std::string, uint64_t>> IntegerFields(
    const BatchStats& s) {
  return {{"query_count", s.query_count},
          {"shard_count", s.shard_count},
          {"obstacle_reuse_hits", s.obstacle_reuse_hits},
          {"obstacles_inserted", s.obstacles_inserted},
          {"shards_carried", s.shards_carried},
          {"cross_shard_store_hits", s.cross_shard_store_hits},
          {"workspaces_adopted", s.workspaces_adopted},
          {"data_page_faults", s.data_page_faults},
          {"obstacle_page_faults", s.obstacle_page_faults},
          {"buffer_hits", s.buffer_hits}};
}

TEST(SubscriptionFold, StatsAreTheSameAtOneAndFourThreads) {
  // RunPlan folds its accounting after the workers join, in shard order
  // and then query order.  One clustered group (left) that shares and
  // carries its workspace tick over tick, and one dispersed group (right)
  // that the locality guard declines: the folded stats must not depend on
  // how many workers ran the items, and per_query_totals must be exactly
  // the sum of the clients' own stats.  The trees are unbuffered, so the
  // batch-level fault counts are deterministic too, and so is each
  // query's own I/O: it counts only its own thread's page fetches.
  const Scene scene =
      MakeScene(41, datagen::PointDistribution::kUniform, 140, 400, 0);
  std::vector<RouteSpec> routes;
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 a{1000.0 + 20.0 * i, 1200.0 + 15.0 * i};
    // Every fourth client is stationary, so the memo takes part.
    if (i % 4 == 3) {
      routes.push_back(RouteSpec{{a}, 10.0});
    } else {
      routes.push_back(RouteSpec{{a, {a.x + 60.0, a.y + 45.0}}, 10.0});
    }
  }
  for (int i = 0; i < 8; ++i) {
    const geom::Vec2 a{5500.0 + 550.0 * i, 800.0 + 1150.0 * i};
    routes.push_back(RouteSpec{{a, {a.x + 300.0, a.y - 200.0}}, 60.0});
  }

  SubscriptionOptions opts;
  opts.batch.target_shard_size = 8;
  // The guard's extent floor is 8 obstacle spacings (4000 here): the
  // cluster (cover at most 140 wide) shares below 0.1 x 4000, and the
  // dispersed group (about 8080 wide) does not.
  opts.batch.share_locality_factor = 0.1;
  opts.batch.query.use_differential_repair = true;
  opts.reshard_period = 0;

  std::vector<TickResult> single_worker;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    opts.batch.num_threads = threads;
    SubscriptionService service(scene.tp, scene.to, opts);
    for (const RouteSpec& r : routes) {
      ASSERT_TRUE(service.Subscribe(r, 2).ok());
    }
    size_t shards_carried = 0;
    for (uint64_t tick = 0; tick < 4; ++tick) {
      SCOPED_TRACE(std::to_string(threads) + " threads, tick " +
                   std::to_string(tick));
      TickResult result = service.Tick();
      const BatchStats& stats = result.stats;
      ASSERT_EQ(stats.shard_count, 2u);
      // One item for the sharing shard plus eight for the declined one.
      EXPECT_EQ(stats.threads_used, threads);
      shards_carried += stats.shards_carried;

      QueryStats sum;
      for (const ClientUpdate& u : result.updates) {
        ASSERT_TRUE(u.result.has_value());
        sum += u.result->stats;
      }
      EXPECT_EQ(IntegerFields(stats.per_query_totals),
                IntegerFields(sum));
      // The fold adds in shard order, this loop in client order.
      EXPECT_NEAR(stats.per_query_totals.cpu_seconds, sum.cpu_seconds,
                  1e-9 * sum.cpu_seconds);

      if (threads == 1) {
        single_worker.push_back(std::move(result));
        continue;
      }
      const TickResult& want = single_worker[tick];
      EXPECT_EQ(IntegerFields(stats), IntegerFields(want.stats));
      EXPECT_EQ(IntegerFields(stats.per_query_totals),
                IntegerFields(want.stats.per_query_totals));
    }
    EXPECT_GT(shards_carried, 0u) << "the clustered shard never carried";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SubscriptionEquivalence,
    ::testing::Values(
        Config{21, datagen::PointDistribution::kUniform, 1, false, true, 1},
        Config{22, datagen::PointDistribution::kUniform, 3, false, true, 4},
        Config{23, datagen::PointDistribution::kUniform, 3, true, true, 1},
        Config{24, datagen::PointDistribution::kZipf, 1, false, false, 1},
        Config{25, datagen::PointDistribution::kZipf, 5, false, true, 4},
        Config{26, datagen::PointDistribution::kZipf, 3, true, false, 4},
        Config{27, datagen::PointDistribution::kUniform, 5, true, true, 4},
        Config{28, datagen::PointDistribution::kZipf, 1, true, false, 1}),
    [](const ::testing::TestParamInfo<Config>& info) {
      const Config& c = info.param;
      return (c.dist == datagen::PointDistribution::kUniform ? "Uniform"
                                                             : "Zipf") +
             std::string("K") + std::to_string(c.k) +
             (c.one_tree ? "OneTree" : "TwoTrees") +
             (c.warm ? "Warm" : "Fresh") + "T" + std::to_string(c.threads) +
             "Seed" + std::to_string(c.seed);
    });

}  // namespace
}  // namespace exec
}  // namespace conn
