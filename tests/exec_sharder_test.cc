// Tests for the batch executor's STR locality sharding.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sharder.h"

namespace conn {
namespace exec {
namespace {

geom::Segment Seg(double x, double y) {
  return geom::Segment({x, y}, {x + 10.0, y + 10.0});
}

TEST(SharderTest, EveryIndexAppearsExactlyOnce) {
  std::vector<geom::Segment> queries;
  for (int i = 0; i < 37; ++i) {
    queries.push_back(Seg(100.0 * (i % 7), 100.0 * (i / 7)));
  }
  const auto shards = ShardByLocality(queries, 5);
  std::set<size_t> seen;
  size_t total = 0;
  for (const auto& shard : shards) {
    EXPECT_FALSE(shard.empty());
    EXPECT_LE(shard.size(), 5u);
    for (size_t idx : shard) {
      EXPECT_TRUE(seen.insert(idx).second) << "index " << idx << " duplicated";
      ++total;
    }
  }
  EXPECT_EQ(total, queries.size());
}

TEST(SharderTest, SingleShardWhenBatchFitsTarget) {
  std::vector<geom::Segment> queries = {Seg(0, 0), Seg(500, 500), Seg(900, 0)};
  const auto shards = ShardByLocality(queries, 8);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].size(), 3u);
}

TEST(SharderTest, DeterministicAcrossCalls) {
  std::vector<geom::Segment> queries;
  for (int i = 0; i < 23; ++i) {
    queries.push_back(Seg(37.0 * ((i * 13) % 11), 53.0 * ((i * 7) % 9)));
  }
  EXPECT_EQ(ShardByLocality(queries, 4), ShardByLocality(queries, 4));
}

TEST(SharderTest, ClusteredQueriesShardTogether) {
  // Four tight clusters in the workspace corners; with the shard size equal
  // to the cluster size, each shard must stay within one cluster.
  const geom::Vec2 corners[4] = {{0, 0}, {9000, 0}, {0, 9000}, {9000, 9000}};
  std::vector<geom::Segment> queries;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 5; ++i) {
      queries.push_back(Seg(corners[c].x + 10.0 * i, corners[c].y + 10.0 * i));
    }
  }
  const auto shards = ShardByLocality(queries, 5);
  ASSERT_EQ(shards.size(), 4u);
  for (const auto& shard : shards) {
    ASSERT_EQ(shard.size(), 5u);
    const size_t cluster = shard[0] / 5;
    for (size_t idx : shard) {
      EXPECT_EQ(idx / 5, cluster) << "shard mixes clusters";
    }
  }
}

TEST(SharderTest, ZeroTargetIsClampedToOne) {
  std::vector<geom::Segment> queries = {Seg(0, 0), Seg(100, 100)};
  const auto shards = ShardByLocality(queries, 0);
  EXPECT_EQ(shards.size(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace conn
