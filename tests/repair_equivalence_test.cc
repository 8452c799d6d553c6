// Carried-workspace tick loop vs fresh bit-identity: the subscription
// service's warm path (ConnOptions::use_tick_warm_start: per-shard
// workspaces carried from tick to tick, retired at every reshard, and the
// stationary-segment memo) must reproduce an independent per-tick COkNN
// evaluation bit-identically: tuples, candidate sets (pid, control point,
// offset), and unreachable intervals.  A carried graph holds the obstacles
// earlier ticks admitted as well as this query's own, the superset
// argument of core/workspace.h.  Stats are not compared (doing less work
// is the point), but the carry counters are asserted non-vacuous so a
// silently disengaged warm path cannot pass.
//
// Coverage matrix: uniform + Zipf points, k in {1, 3, 5}, both tree
// configurations, 1 and 4 worker threads, with mid-run membership churn
// (subscribe + unsubscribe triggers a reshard, which must carry no shard)
// and a quarantined client mid-stream (failure injection must not poison
// the carried graphs the survivors run on).
//
// The DispatchRules suite pins how core::CoknnQuery / core::ConnQuery
// choose their path from their arguments alone: the tick memo, fresh
// evaluation, a carried workspace, and the 1-tree traversal selected by
// passing the same tree twice.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/conn.h"
#include "core/workspace.h"
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
           num_clients, datagen::Workspace(), fopts, seed ^ 0x5E77)) {
    // Every fourth client is stationary (a completed route): the memo path
    // must coexist with carried workspaces.
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

SubscriptionOptions WarmOptions(size_t threads) {
  SubscriptionOptions opts;
  opts.batch.num_threads = threads;
  opts.batch.target_shard_size = 3;
  opts.batch.share_locality_factor = 0.0;  // force sharing: exactness bar
  opts.batch.query.use_tick_warm_start = true;
  opts.reshard_period = 3;  // small: resharding participates mid-run
  return opts;
}

/// The ticks of the six-tick loops below that reshard: membership changes
/// at tick 0 (first tick) and tick 2 (churn or quarantine), and the period
/// of 3 then falls due at tick 5.
bool ReshardTick(uint64_t tick) { return tick == 0 || tick == 2 || tick == 5; }

struct Config {
  uint64_t seed;
  datagen::PointDistribution dist;
  size_t k;
  bool one_tree;
  size_t threads;
};

class RepairEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(RepairEquivalence, RepairLoopMatchesIndependentEvaluation) {
  const Config cfg = GetParam();
  const Scene scene =
      MakeScene(cfg.seed, cfg.dist, 140, 70, /*num_clients=*/8);

  const SubscriptionOptions opts = WarmOptions(cfg.threads);
  const rtree::RStarTree& data = cfg.one_tree ? scene.unified : scene.tp;
  const rtree::RStarTree& obstacles = cfg.one_tree ? scene.unified : scene.to;
  SubscriptionService service(data, obstacles, opts);
  std::vector<int64_t> ids;
  for (const RouteSpec& r : scene.routes) {
    ids.push_back(service.Subscribe(r, cfg.k).value());
  }

  size_t carried = 0;
  uint64_t frontier_reuse = 0;
  for (uint64_t tick = 0; tick < 6; ++tick) {
    // Mid-run membership churn: the reshard it forces retires every
    // carried workspace without disturbing exactness.
    if (tick == 2) {
      ASSERT_TRUE(service.Unsubscribe(ids[1]).ok());
      ids.push_back(service.Subscribe(scene.routes[1], cfg.k).value());
    }

    const TickResult result = service.Tick();
    ASSERT_EQ(result.updates.size(), size_t{8});
    EXPECT_EQ(result.quarantined_now, size_t{0});
    if (ReshardTick(tick)) {
      EXPECT_EQ(result.stats.shards_carried, 0u) << "tick " << tick;
    }
    carried += result.stats.shards_carried;
    frontier_reuse += result.stats.per_query_totals.tick_frontier_reuse;

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
  EXPECT_GT(carried, 0u) << "no shard was ever carried; test is vacuous";
  EXPECT_GT(frontier_reuse, 0u) << "no scan ran on a carried arena";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RepairEquivalence,
    ::testing::Values(
        Config{41, datagen::PointDistribution::kUniform, 1, false, 1},
        Config{42, datagen::PointDistribution::kUniform, 3, false, 4},
        Config{43, datagen::PointDistribution::kUniform, 5, true, 1},
        Config{44, datagen::PointDistribution::kZipf, 1, true, 4},
        Config{45, datagen::PointDistribution::kZipf, 3, false, 1},
        Config{46, datagen::PointDistribution::kZipf, 5, false, 4},
        Config{47, datagen::PointDistribution::kUniform, 3, true, 4},
        Config{48, datagen::PointDistribution::kZipf, 5, true, 1}),
    [](const ::testing::TestParamInfo<Config>& info) {
      const Config& c = info.param;
      return (c.dist == datagen::PointDistribution::kUniform ? "Uniform"
                                                             : "Zipf") +
             std::string("K") + std::to_string(c.k) +
             (c.one_tree ? "OneTree" : "TwoTrees") + "T" +
             std::to_string(c.threads) + "Seed" + std::to_string(c.seed);
    });

TEST(RepairEquivalence, QuarantinedClientDoesNotPoisonSharedFrontier) {
  // One client fails at tick 2 and is quarantined.  The obstacles its
  // earlier ticks admitted may remain in a carried graph — they are real
  // obstacles, whoever retrieved them — so the survivors must keep
  // producing bit-identical answers after the victim vanishes.
  const Scene scene =
      MakeScene(49, datagen::PointDistribution::kUniform, 140, 70, 8);

  SubscriptionOptions faulty = WarmOptions(/*threads=*/1);
  SubscriptionService probe(scene.tp, scene.to, faulty);
  std::vector<int64_t> ids;
  for (const RouteSpec& r : scene.routes) {
    ids.push_back(probe.Subscribe(r, 3).value());
  }
  const int64_t victim = ids[2];
  faulty.failure_injector = [victim](int64_t client, uint64_t tick) {
    if (client == victim && tick >= 2) {
      return Status::InvalidArgument("injected tick fault");
    }
    return Status::OK();
  };

  SubscriptionService service(scene.tp, scene.to, faulty);
  std::vector<int64_t> got_ids;
  for (const RouteSpec& r : scene.routes) {
    got_ids.push_back(service.Subscribe(r, 3).value());
  }
  ASSERT_EQ(got_ids, ids);

  size_t carried = 0;
  for (uint64_t tick = 0; tick < 6; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    const TickResult result = service.Tick();
    if (ReshardTick(tick)) {
      EXPECT_EQ(result.stats.shards_carried, 0u);
    }
    carried += result.stats.shards_carried;
    ASSERT_EQ(result.updates.size(), tick <= 2 ? size_t{8} : size_t{7});
    EXPECT_EQ(result.quarantined_now, tick == 2 ? size_t{1} : size_t{0});
    for (const ClientUpdate& u : result.updates) {
      SCOPED_TRACE("client " + std::to_string(u.client));
      if (u.client == victim && tick == 2) {
        EXPECT_FALSE(u.status.ok());
        EXPECT_FALSE(u.result.has_value());
        continue;
      }
      ASSERT_TRUE(u.status.ok());
      ASSERT_TRUE(u.result.has_value());
      const core::CoknnResult want =
          core::CoknnQuery(scene.tp, scene.to, u.segment, 3);
      ExpectCoknnEqual(*u.result, want);
    }
  }
  EXPECT_EQ(service.quarantined_clients(), size_t{1});
  EXPECT_GT(carried, 0u) << "no shard was ever carried; test is vacuous";
}

void ExpectConnEqual(const core::ConnResult& got,
                     const core::ConnResult& want) {
  ExpectIntervalSetsEqual(got.unreachable, want.unreachable);
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    EXPECT_EQ(got.tuples[i].point_id, want.tuples[i].point_id) << "tuple " << i;
    EXPECT_EQ(got.tuples[i].control_point, want.tuples[i].control_point)
        << "tuple " << i;
    EXPECT_EQ(got.tuples[i].offset, want.tuples[i].offset) << "tuple " << i;
    EXPECT_EQ(got.tuples[i].range.lo, want.tuples[i].range.lo)
        << "tuple " << i;
    EXPECT_EQ(got.tuples[i].range.hi, want.tuples[i].range.hi)
        << "tuple " << i;
  }
}

/// Parameter: true = the unified tree passed as both trees, false = the
/// separate point and obstacle trees.
class DispatchRules : public ::testing::TestWithParam<bool> {
 protected:
  DispatchRules()
      : scene_(MakeScene(50, datagen::PointDistribution::kUniform, 140, 70,
                         /*num_clients=*/1)) {}

  const rtree::RStarTree& data() const {
    return GetParam() ? scene_.unified : scene_.tp;
  }
  const rtree::RStarTree& obstacles() const {
    return GetParam() ? scene_.unified : scene_.to;
  }

  // Two abutting arc slices of one street: the second runs on the graph
  // the first leaves in a carried workspace.
  const geom::Segment steps_[2] = {{{4000.0, 5000.0}, {4250.0, 5040.0}},
                                   {{4250.0, 5040.0}, {4500.0, 5080.0}}};
  const Scene scene_;
};

TEST_P(DispatchRules, PriorForTheSameQueryIsReturnedAsTheMemo) {
  const core::CoknnResult prior =
      core::CoknnQuery(data(), obstacles(), steps_[0], 3);
  const core::CoknnResult memo = core::CoknnQuery(
      data(), obstacles(), steps_[0], 3, {}, nullptr, {&prior});
  EXPECT_EQ(memo.stats.tick_warm_starts, 1u);
  EXPECT_EQ(memo.stats.obstacles_evaluated, 0u);
  EXPECT_EQ(memo.stats.points_evaluated, 0u);
  EXPECT_EQ(memo.stats.data_page_reads, 0u);
  EXPECT_EQ(memo.stats.obstacle_page_reads, 0u);
  EXPECT_EQ(memo.stats.buffer_hits, 0u);
  ExpectCoknnEqual(memo, prior);
}

TEST_P(DispatchRules, PriorForAnotherQueryRunsFresh) {
  const core::CoknnResult prior =
      core::CoknnQuery(data(), obstacles(), steps_[0], 3);
  const core::CoknnResult got = core::CoknnQuery(
      data(), obstacles(), steps_[1], 3, {}, nullptr, {&prior});
  const core::CoknnResult fresh =
      core::CoknnQuery(data(), obstacles(), steps_[1], 3);
  EXPECT_EQ(got.stats.tick_warm_starts, 0u);
  EXPECT_EQ(got.stats.points_evaluated, fresh.stats.points_evaluated);
  EXPECT_EQ(got.stats.obstacles_evaluated, fresh.stats.obstacles_evaluated);
  EXPECT_GT(got.stats.TotalPageReads(), 0u);
  ExpectCoknnEqual(got, fresh);
}

TEST_P(DispatchRules, WorkspaceWithoutRepairOptionRunsWarmNotRepaired) {
  core::ConnOptions opts;
  opts.use_tick_warm_start = true;
  opts.use_differential_repair = false;
  core::QueryWorkspace ws(&data(), &obstacles(), steps_[0].Bounds());
  for (const geom::Segment& q : steps_) {
    const core::CoknnResult got =
        core::CoknnQuery(data(), obstacles(), q, 3, opts, &ws);
    EXPECT_EQ(got.stats.repairs_applied, 0u);
    EXPECT_EQ(got.stats.tuples_carried + got.stats.tuples_rescored, 0u);
    ExpectCoknnEqual(got, core::CoknnQuery(data(), obstacles(), q, 3));
  }
}

TEST_P(DispatchRules, SameTreeTwiceChargesOneTreeAndMatchesTwoTrees) {
  const geom::Vec2 p{4300.0, 5200.0};
  for (const geom::Segment& q : {steps_[0], geom::Segment(p, p)}) {
    SCOPED_TRACE(q.Length() > 0.0 ? "segment" : "zero-length (point lookup)");
    const core::ConnResult conn = core::ConnQuery(data(), obstacles(), q);
    const core::CoknnResult coknn = core::CoknnQuery(data(), obstacles(), q, 3);
    if (GetParam()) {
      EXPECT_EQ(conn.stats.obstacle_page_reads, 0u);
      EXPECT_EQ(coknn.stats.obstacle_page_reads, 0u);
    }
    EXPECT_GT(conn.stats.data_page_reads, 0u);
    EXPECT_GT(conn.stats.points_evaluated, 0u);
    ExpectConnEqual(conn, core::ConnQuery(scene_.tp, scene_.to, q));
    ExpectCoknnEqual(coknn, core::CoknnQuery(scene_.tp, scene_.to, q, 3));
  }
}

std::string TreeConfigName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "OneTree" : "TwoTrees";
}

INSTANTIATE_TEST_SUITE_P(Configs, DispatchRules, ::testing::Bool(),
                         TreeConfigName);

}  // namespace
}  // namespace exec
}  // namespace conn
