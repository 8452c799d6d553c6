// Tests for the QueryStats cost model (Section 5.1: 10 ms per page fault),
// the Status/StatusOr error plumbing, and the tick-loop reuse counters the
// subscription service reports.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/status.h"
#include "datagen/datasets.h"
#include "datagen/fleet.h"
#include "exec/subscription.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace {

TEST(QueryStatsTest, CostModelChargesTenMsPerPage) {
  QueryStats s;
  s.data_page_reads = 7;
  s.obstacle_page_reads = 3;
  s.cpu_seconds = 0.5;
  EXPECT_EQ(s.TotalPageReads(), 10u);
  EXPECT_DOUBLE_EQ(s.IoSeconds(), 0.1);
  EXPECT_DOUBLE_EQ(s.QueryCostSeconds(), 0.6);
}

TEST(QueryStatsTest, AccumulateAndAverage) {
  QueryStats a;
  a.points_evaluated = 10;
  a.obstacles_evaluated = 4;
  a.cpu_seconds = 1.0;
  QueryStats b;
  b.points_evaluated = 20;
  b.obstacles_evaluated = 6;
  b.cpu_seconds = 3.0;
  a.tick_warm_starts = 1;
  a.tick_frontier_reuse = 3;
  a.cross_shard_store_hits = 5;
  b.tick_warm_starts = 1;
  b.tick_frontier_reuse = 7;
  b.cross_shard_store_hits = 1;
  a += b;
  EXPECT_EQ(a.points_evaluated, 30u);
  EXPECT_EQ(a.obstacles_evaluated, 10u);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 4.0);
  EXPECT_EQ(a.tick_warm_starts, 2u);
  EXPECT_EQ(a.tick_frontier_reuse, 10u);
  EXPECT_EQ(a.cross_shard_store_hits, 6u);

  const QueryStats avg = a.AveragedOver(2);
  EXPECT_EQ(avg.points_evaluated, 15u);
  EXPECT_DOUBLE_EQ(avg.cpu_seconds, 2.0);
  EXPECT_EQ(avg.tick_warm_starts, 1u);
  EXPECT_EQ(avg.tick_frontier_reuse, 5u);
}

TEST(QueryStatsTest, TickReuseCountersEngageOnClusteredFleet) {
  // A clustered fleet over a real scene must exercise both tick-loop
  // reuse paths: carried workspaces (tick_warm_starts) and warm Dijkstra
  // restarts inside carried shards (tick_frontier_reuse).
  const datagen::DatasetPair pair = datagen::MakeDatasetPair(
      datagen::PointDistribution::kUniform, 150, 80, /*seed=*/99);
  const rtree::RStarTree tp =
      rtree::StrBulkLoad(datagen::ToPointObjects(pair.points)).value();
  const rtree::RStarTree to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(pair.obstacles)).value();

  datagen::FleetOptions fopts;
  fopts.pattern = datagen::FleetPattern::kClustered;
  fopts.depots = 2;
  fopts.depot_radius = 250.0;
  fopts.waypoints_per_route = 4;
  fopts.leg_length = 300.0;
  fopts.speed = 64.0;
  std::vector<datagen::FleetRoute> fleet = datagen::MakeFleetRoutes(
      /*n=*/10, datagen::Workspace(), fopts, /*seed=*/0x57A7);
  fleet[3].waypoints.resize(1);  // one stationary client: memo path

  exec::SubscriptionOptions opts;
  opts.batch.num_threads = 1;
  opts.batch.target_shard_size = 3;
  opts.batch.share_locality_factor = 0.0;
  opts.reshard_period = 2;  // frequent resharding between warm ticks

  exec::SubscriptionService service(tp, to, opts);
  for (datagen::FleetRoute& r : fleet) {
    ASSERT_TRUE(
        service.Subscribe(exec::RouteSpec{std::move(r.waypoints), r.speed}, 2)
            .ok());
  }

  QueryStats totals;
  for (int tick = 0; tick < 8; ++tick) {
    const exec::TickResult result = service.Tick();
    totals += result.stats.per_query_totals;
  }
  EXPECT_GT(totals.tick_warm_starts, 0u);
  EXPECT_GT(totals.tick_frontier_reuse, 0u);
}

TEST(QueryStatsTest, ToStringMentionsKeyCounters) {
  QueryStats s;
  s.points_evaluated = 42;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("NPE=42"), std::string::npos);
  EXPECT_NE(str.find("SVG"), std::string::npos);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(ok_value.value(), 42);

  StatusOr<int> err(Status::NotFound("missing"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOut) {
  StatusOr<std::string> s(std::string("payload"));
  const std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "payload");
}

}  // namespace
}  // namespace conn
