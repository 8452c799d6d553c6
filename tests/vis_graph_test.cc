// Tests for the local visibility graph and its incremental Dijkstra scan:
// lazy adjacency correctness under obstacle insertion (epoch invalidation),
// shortest paths around obstacles, and unreachable pockets.

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vis/dijkstra.h"
#include "vis/full_vis_graph.h"
#include "vis/vis_graph.h"

namespace conn {
namespace vis {
namespace {

const geom::Rect kDomain({0, 0}, {1000, 1000});

TEST(VisGraphTest, EmptyGraphDirectPath) {
  VisGraph g(kDomain);
  const VertexId t = g.AddFixedVertex({100, 0});
  DijkstraScan scan(&g, {0, 0});
  VertexId v;
  double dist;
  int32_t pred;
  ASSERT_TRUE(scan.Next(&v, &dist, &pred));
  EXPECT_EQ(v, t);
  EXPECT_DOUBLE_EQ(dist, 100.0);
  EXPECT_EQ(pred, kPredSource);
}

TEST(VisGraphTest, PathBendsAroundObstacle) {
  VisGraph g(kDomain);
  const VertexId t = g.AddFixedVertex({100, 0});
  // A wall between source (0,0) and target (100,0).
  g.AddObstacle(geom::Rect({45, -30}, {55, 30}), 0);
  EXPECT_EQ(g.VertexCount(), 5u);  // target + 4 corners
  EXPECT_EQ(g.ObstacleCount(), 1u);

  DijkstraScan scan(&g, {0, 0});
  const double d = scan.SettleTargets({t});
  // Shortest path via corner (45,-30) or (45,30) then (55,±30).
  const double expected = std::hypot(45, 30) + 10 + std::hypot(45, 30);
  EXPECT_NEAR(d, expected, 1e-9);
  // Predecessor chain must reach the target through a corner.
  EXPECT_GE(scan.PredOf(t), 0);
}

TEST(VisGraphTest, EpochInvalidationBlocksOldEdges) {
  VisGraph g(kDomain);
  const VertexId t = g.AddFixedVertex({100, 0});
  {
    DijkstraScan scan(&g, {0, 0});
    EXPECT_NEAR(scan.SettleTargets({t}), 100.0, 1e-12);
  }
  // Insert a wall: the cached direct edge must be invalidated.
  g.AddObstacle(geom::Rect({45, -30}, {55, 30}), 0);
  {
    DijkstraScan scan(&g, {0, 0});
    EXPECT_GT(scan.SettleTargets({t}), 100.0 + 1.0);
  }
}

TEST(VisGraphTest, UnreachableTargetGivesInfinity) {
  VisGraph g(kDomain);
  const VertexId t = g.AddFixedVertex({500, 500});
  // Box the target in with four overlapping walls.
  g.AddObstacle(geom::Rect({400, 400}, {600, 420}), 0);  // bottom
  g.AddObstacle(geom::Rect({400, 580}, {600, 600}), 1);  // top
  g.AddObstacle(geom::Rect({400, 400}, {420, 600}), 2);  // left
  g.AddObstacle(geom::Rect({580, 400}, {600, 600}), 3);  // right
  DijkstraScan scan(&g, {0, 0});
  EXPECT_TRUE(std::isinf(scan.SettleTargets({t})));
}

TEST(VisGraphTest, StatsCountersAdvance) {
  QueryStats stats;
  VisGraph g(kDomain, &stats);
  g.AddFixedVertex({100, 0});
  g.AddObstacle(geom::Rect({40, 10}, {60, 30}), 7);
  EXPECT_EQ(stats.obstacles_evaluated, 1u);
  EXPECT_EQ(stats.vis_graph_vertices, 5u);
  g.Visible({0, 0}, {100, 100});
  EXPECT_GE(stats.visibility_tests, 1u);
}

TEST(DijkstraScanTest, YieldsAscendingDistances) {
  Rng rng(99);
  VisGraph g(kDomain);
  g.AddFixedVertex({900, 900});
  for (int i = 0; i < 20; ++i) {
    const geom::Vec2 lo{rng.Uniform(100, 800), rng.Uniform(100, 800)};
    g.AddObstacle(
        geom::Rect(lo, {lo.x + rng.Uniform(5, 80), lo.y + rng.Uniform(5, 80)}),
        i);
  }
  DijkstraScan scan(&g, {50, 50});
  VertexId v;
  double dist, prev = 0.0;
  int32_t pred;
  while (scan.Next(&v, &dist, &pred)) {
    EXPECT_GE(dist, prev - 1e-12);
    prev = dist;
    if (pred >= 0) {
      EXPECT_TRUE(scan.IsSettled(static_cast<VertexId>(pred)));
      EXPECT_LE(scan.DistOf(static_cast<VertexId>(pred)), dist + 1e-12);
    }
  }
}

// The local VisGraph must agree with the eager FullVisGraph on obstructed
// distances between a source and fixed targets.
class LocalVsFullGraph : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalVsFullGraph, SameShortestDistances) {
  Rng rng(GetParam());
  std::vector<geom::Rect> rects;
  for (int i = 0; i < 15; ++i) {
    const geom::Vec2 lo{rng.Uniform(100, 800), rng.Uniform(100, 800)};
    rects.push_back(geom::Rect(
        lo, {lo.x + rng.Uniform(10, 120), lo.y + rng.Uniform(10, 120)}));
  }
  const geom::Vec2 source{rng.Uniform(0, 80), rng.Uniform(0, 80)};
  const geom::Vec2 target{rng.Uniform(900, 1000), rng.Uniform(900, 1000)};

  VisGraph local(kDomain);
  const VertexId t = local.AddFixedVertex(target);
  for (size_t i = 0; i < rects.size(); ++i) local.AddObstacle(rects[i], i);
  DijkstraScan scan(&local, source);
  const double local_dist = scan.SettleTargets({t});

  FullVisGraph full(rects);
  const VertexId ft = full.AddPoint(target);
  const VertexId fs = full.AddPoint(source);
  full.Build();
  const double full_dist = full.Distance(fs, ft);

  EXPECT_NEAR(local_dist, full_dist, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalVsFullGraph,
                         ::testing::Range<uint64_t>(1, 13));

// After every insertion the incrementally maintained local graph must hold
// exactly the complete graph's edges over the same obstacles: the grid walk
// under Visible() skips cells, never a blocker.  Half the coordinates snap
// to the obstacle grid's cell boundaries (64 cells of 15.625 over kDomain),
// so sight lines run along cell edges and obstacles touch at edges.
class LocalEdgeSetVsFull : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalEdgeSetVsFull, NeighborSetsMatchAfterEveryInsertion) {
  Rng rng(GetParam());
  constexpr double kCell = 1000.0 / 64;
  const bool snap_all = GetParam() % 2 == 0;
  auto coord = [&](double lo, double hi) {
    const double v = rng.Uniform(lo, hi);
    return snap_all || rng.UniformU64(2) == 0 ? std::round(v / kCell) * kCell
                                              : v;
  };
  std::vector<geom::Rect> rects;
  VisGraph local(kDomain);
  for (uint32_t i = 0; i < 24; ++i) {
    const geom::Vec2 lo{coord(0, 900), coord(0, 900)};
    const geom::Vec2 hi{lo.x + kCell * (1 + rng.UniformU64(6)),
                        lo.y + kCell * (1 + rng.UniformU64(4))};
    rects.push_back(geom::Rect(lo, hi));
    local.AddObstacle(rects.back(), i);

    FullVisGraph full(rects);
    full.Build();
    ASSERT_EQ(local.VertexCount(), full.VertexCount());
    for (VertexId v = 0; v < local.VertexCount(); ++v) {
      ASSERT_EQ(local.VertexPos(v), full.VertexPos(v));
      std::set<VertexId> got, want;
      for (const VisEdge& e : local.Neighbors(v)) got.insert(e.to);
      for (const VisEdge& e : full.Neighbors(v)) want.insert(e.to);
      EXPECT_EQ(got, want) << "vertex " << v << " after obstacle " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalEdgeSetVsFull,
                         ::testing::Range<uint64_t>(1, 9));

// Reach boxes under fixed-vertex churn.  Between insertions, query sessions
// add fixed vertices (their reciprocal edges grow older lists' reach
// boxes), scan and close again (the erased edges leave those boxes stale,
// and the freed slots are recycled by later corners and fixed vertices); a
// few fixed vertices stay for good.  After every insertion, and inside
// every session, each live vertex's neighbours must be those of a graph
// built from scratch over the same obstacles and live fixed vertices.
// Coordinates snap to cell boundaries as in LocalEdgeSetVsFull.
class ReachBoxChurnVsFresh : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReachBoxChurnVsFresh, NeighborSetsMatchFreshGraph) {
  Rng rng(GetParam() ^ 0x8EAC);
  constexpr double kCell = 1000.0 / 64;
  const bool snap_all = GetParam() % 2 == 0;
  auto coord = [&](double lo, double hi) {
    const double v = rng.Uniform(lo, hi);
    return snap_all || rng.UniformU64(2) == 0 ? std::round(v / kCell) * kCell
                                              : v;
  };
  // A vertex is named across graphs by its owner (obstacle index, or
  // -1 - k for the k-th live fixed vertex) and its position.
  using Key = std::tuple<int, double, double>;
  auto key_of = [](const VisGraph& g, VertexId v, int owner) {
    return Key{owner, g.VertexPos(v).x, g.VertexPos(v).y};
  };
  std::vector<geom::Rect> rects;
  std::vector<geom::Vec2> fixed;  // live fixed vertices in owner order
  std::map<VertexId, Key> key;    // every live vertex of the grown graph
  VisGraph local(kDomain);

  auto expect_matches_fresh = [&](const std::string& when) {
    VisGraph fresh(kDomain);
    for (uint32_t j = 0; j < rects.size(); ++j) fresh.AddObstacle(rects[j], j);
    for (const geom::Vec2& p : fixed) fresh.AddFixedVertex(p);
    ASSERT_EQ(fresh.VertexCount(), key.size()) << when;
    std::vector<Key> fresh_key;
    std::map<Key, VertexId> fresh_id;
    for (VertexId v = 0; v < fresh.VertexCount(); ++v) {
      const int owner = v < 4 * rects.size()
                            ? static_cast<int>(v / 4)
                            : -1 - static_cast<int>(v - 4 * rects.size());
      fresh_key.push_back(key_of(fresh, v, owner));
      fresh_id[fresh_key.back()] = v;
    }
    for (const auto& [v, k] : key) {
      ASSERT_TRUE(local.IsAlive(v)) << when;
      ASSERT_EQ(fresh_id.count(k), 1u) << "vertex " << v << " " << when;
      std::set<Key> got, want;
      for (const VisEdge& e : local.Neighbors(v)) got.insert(key.at(e.to));
      for (const VisEdge& e : fresh.Neighbors(fresh_id[k])) {
        want.insert(fresh_key[e.to]);
      }
      EXPECT_EQ(got, want) << "vertex " << v << " " << when;
    }
  };

  for (uint32_t i = 0; i < 24; ++i) {
    const geom::Vec2 lo{coord(0, 900), coord(0, 900)};
    const geom::Vec2 hi{lo.x + kCell * (1 + rng.UniformU64(6)),
                        lo.y + kCell * (1 + rng.UniformU64(4))};
    rects.push_back(geom::Rect(lo, hi));
    local.AddObstacle(rects.back(), i);
    // The four new corners are the live slots without a key yet.
    for (VertexId v = 0; v < local.VertexCount(); ++v) {
      if (local.IsAlive(v) && !key.count(v)) {
        key[v] = key_of(local, v, static_cast<int>(i));
      }
    }
    ASSERT_EQ(key.size(), 4 * rects.size() + fixed.size());
    expect_matches_fresh("after obstacle " + std::to_string(i));

    if (i % 6 == 2) {  // a fixed vertex that stays
      const VertexId v = local.AddFixedVertex({coord(0, 1000), coord(0, 1000)});
      key[v] = key_of(local, v, -1 - static_cast<int>(fixed.size()));
      fixed.push_back(local.VertexPos(v));
    }
    for (uint64_t round = rng.UniformU64(3); round > 0; --round) {
      QuerySession session(&local);
      std::vector<VertexId> targets;
      for (uint64_t n = 1 + rng.UniformU64(3); n > 0; --n) {
        targets.push_back(
            session.AddFixedVertex({coord(0, 1000), coord(0, 1000)}));
        key[targets.back()] = key_of(local, targets.back(),
                                     -1 - static_cast<int>(fixed.size()));
        fixed.push_back(local.VertexPos(targets.back()));
      }
      DijkstraScan scan(&local, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
      scan.SettleTargets(targets);
      expect_matches_fresh("in a session after obstacle " +
                           std::to_string(i));
      for (const VertexId v : targets) key.erase(v);
      fixed.resize(fixed.size() - targets.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachBoxChurnVsFresh,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace vis
}  // namespace conn
