// Tests for the local visibility graph and its incremental Dijkstra scan:
// lazy adjacency correctness under obstacle insertion (epoch invalidation),
// shortest paths around obstacles, and unreachable pockets.

#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/predicates.h"
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

// Seeding makes the same O(1) own-rectangle test as adjacency: a source
// whose sight line leaves a thin rectangle's corner into its quadrant, but
// passes the shrunk interior by, seeds that corner directly, and every
// distance is FullVisGraph's.
TEST(DijkstraScanTest, SeedsCornerSeenPastThinInterior) {
  const std::vector<geom::Rect> rects = {
      {{440, 100}, {440 + 3 * geom::kEpsInterior, 300}}};
  VisGraph g(kDomain);
  g.AddObstacle(rects[0], 0);
  FullVisGraph full(rects);
  full.Build();
  ASSERT_EQ(full.VertexCount(), g.VertexCount());
  const geom::Vec2 source{600, 150};
  const std::vector<double> want = full.DistancesFromLocation(source);
  DijkstraScan scan(&g, source);
  std::map<VertexId, std::pair<double, int32_t>> got;
  VertexId v;
  double dist;
  int32_t pred;
  while (scan.Next(&v, &dist, &pred)) got[v] = {dist, pred};
  ASSERT_EQ(got.size(), g.VertexCount());
  for (VertexId u = 0; u < g.VertexCount(); ++u) {
    ASSERT_EQ(g.VertexPos(u), full.VertexPos(u));
    EXPECT_NEAR(got[u].first, want[u], 1e-12) << "vertex " << u;
  }
  ASSERT_EQ(g.VertexPos(0), (geom::Vec2{440, 100}));
  EXPECT_EQ(got[0].second, kPredSource);
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

// The angular shadow map of RecomputeAdjacency skips sight-line walks it
// proves blocked.  After every insertion each live vertex's list must be
// exactly the per-pair recompute: every other live vertex in id order that
// is farther than kEpsDist and ObstacleSet::Visible, with bit-equal
// lengths (no slot is recycled here, so cached lists stay in id order).
// The edge sets must also match FullVisGraph's brute-force build.  Each
// scene targets one way the map could wrongly hide a visible candidate.
struct ShadowScene {
  std::string name;
  std::vector<geom::Rect> rects;
  /// Fixed vertices, each added after obstacle `after` (-1: before any).
  std::vector<std::pair<int, geom::Vec2>> fixed;
};

void PrintTo(const ShadowScene& scene, std::ostream* os) { *os << scene.name; }

/// \p owner names each local vertex across graphs: its obstacle's index,
/// or -1 - k for the k-th fixed vertex.
void ExpectListsMatchOracle(const VisGraph& g,
                            const std::vector<geom::Rect>& rects,
                            const std::vector<geom::Vec2>& fixed,
                            const std::vector<int>& owner,
                            const std::string& when) {
  ASSERT_EQ(owner.size(), g.VertexCount()) << when;
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    const geom::Vec2 pos = g.VertexPos(v);
    std::vector<VertexId> want_ids, got_ids;
    std::vector<double> want_len, got_len;
    for (VertexId u = 0; u < g.VertexCount(); ++u) {
      const double len = geom::Dist(pos, g.VertexPos(u));
      if (u == v || len <= geom::kEpsDist) continue;
      if (!g.obstacles().Visible(pos, g.VertexPos(u))) continue;
      want_ids.push_back(u);
      want_len.push_back(len);
    }
    for (const VisEdge& e : g.Neighbors(v)) {
      got_ids.push_back(e.to);
      got_len.push_back(e.length);
    }
    ASSERT_EQ(got_ids, want_ids) << "vertex " << v << " at (" << pos.x
                                 << ", " << pos.y << ") " << when;
    ASSERT_EQ(got_len, want_len) << "vertex " << v << " " << when;
  }

  // The same edge sets as the complete graph.
  using Key = std::tuple<int, double, double>;
  FullVisGraph full(rects);
  for (const geom::Vec2& p : fixed) full.AddPoint(p);
  full.Build();
  ASSERT_EQ(full.VertexCount(), g.VertexCount()) << when;
  auto full_key = [&](VertexId v) {
    const int full_owner = v < 4 * rects.size()
                               ? static_cast<int>(v / 4)
                               : -1 - static_cast<int>(v - 4 * rects.size());
    return Key{full_owner, full.VertexPos(v).x, full.VertexPos(v).y};
  };
  auto local_key = [&](VertexId v) {
    return Key{owner[v], g.VertexPos(v).x, g.VertexPos(v).y};
  };
  std::map<Key, VertexId> full_id;
  for (VertexId v = 0; v < full.VertexCount(); ++v) full_id[full_key(v)] = v;
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    ASSERT_EQ(full_id.count(local_key(v)), 1u) << "vertex " << v << " " << when;
    std::set<Key> got, want;
    for (const VisEdge& e : g.Neighbors(v)) got.insert(local_key(e.to));
    for (const VisEdge& e : full.Neighbors(full_id[local_key(v)])) {
      want.insert(full_key(e.to));
    }
    EXPECT_EQ(got, want) << "vertex " << v << " " << when;
  }
}

class ShadowMapVsOracle : public ::testing::TestWithParam<ShadowScene> {};

TEST_P(ShadowMapVsOracle, ListsMatchPerPairRecomputeAfterEveryInsertion) {
  const ShadowScene& scene = GetParam();
  VisGraph g(kDomain);
  std::vector<geom::Rect> rects;
  std::vector<geom::Vec2> fixed;
  std::vector<int> owner;
  auto add_fixed_after = [&](int after) {
    for (const auto& [when, p] : scene.fixed) {
      if (when != after) continue;
      ASSERT_EQ(g.AddFixedVertex(p), owner.size());
      owner.push_back(-1 - static_cast<int>(fixed.size()));
      fixed.push_back(p);
      ExpectListsMatchOracle(g, rects, fixed, owner,
                             "after fixed vertex " +
                                 std::to_string(fixed.size() - 1));
    }
  };
  add_fixed_after(-1);
  for (size_t i = 0; i < scene.rects.size(); ++i) {
    ASSERT_TRUE(g.AddObstacle(scene.rects[i], i));
    rects.push_back(scene.rects[i]);
    owner.insert(owner.end(), 4, static_cast<int>(i));
    ExpectListsMatchOracle(g, rects, fixed, owner,
                           "after obstacle " + std::to_string(i));
    add_fixed_after(static_cast<int>(i));
  }
}

std::vector<ShadowScene> ShadowScenes() {
  std::vector<ShadowScene> scenes;
  // A wall straddling angle 0 (the +x axis) from the corner (200, 500) of
  // the first rectangle and from a fixed vertex, candidates behind it on
  // both sides of the axis and beside it.
  scenes.push_back(
      {"WrapThroughAngleZero",
       {{{190, 490}, {200, 500}},
        {{300, 450}, {320, 550}},
        {{500, 480}, {510, 490}},
        {{500, 510}, {510, 520}},
        {{600, 495}, {610, 505}},
        {{450, 455}, {460, 465}},
        {{700, 560}, {720, 580}},
        {{700, 420}, {720, 440}}},
       {{1, {250, 510}}, {7, {150, 500}}, {7, {250, 500}}}});
  // Edge-sharing, overlapping and nested rectangles: sight lines graze
  // shared edges and run through corners inside other obstacles.
  scenes.push_back(
      {"TouchingOverlappingNested",
       {{{200, 200}, {300, 300}},
        {{300, 200}, {350, 260}},
        {{320, 240}, {400, 320}},
        {{220, 220}, {260, 260}},
        {{230, 230}, {240, 240}},
        {{300, 300}, {340, 330}},
        {{600, 600}, {650, 650}},
        {{100, 600}, {150, 650}},
        {{450, 100}, {500, 150}},
        {{150, 150}, {200, 200}}},
       {{5, {500, 500}}, {9, {120, 120}}, {9, {420, 420}}}});
  // Rectangles thinner than 2*kEpsInterior (no interior, so nothing
  // blocks), one exactly that thick, and one thicker but thin against its
  // distance, between candidates.
  const double e = geom::kEpsInterior;
  scenes.push_back({"ThinRectangles",
                    {{{400, 100}, {400 + e, 300}},
                     {{420, 100}, {420 + 2 * e, 300}},
                     {{440, 100}, {440 + 1.5 * e, 300}},
                     {{100, 350}, {300, 350 + 1e-6}},
                     {{600, 150}, {620, 170}},
                     {{600, 220}, {620, 240}},
                     {{150, 500}, {170, 520}},
                     {{250, 200}, {270, 220}}},
                    {{7, {300, 180}}, {7, {200, 300}}, {7, {700, 200}}}});
  // Fixed vertices on an edge, on a corner and inside an obstacle.
  scenes.push_back({"FixedVerticesOnObstacles",
                    {{{300, 300}, {400, 400}},
                     {{500, 300}, {520, 420}},
                     {{200, 450}, {260, 470}},
                     {{650, 350}, {700, 380}}},
                    {{0, {350, 300}},
                     {0, {400, 400}},
                     {0, {350, 350}},
                     {3, {350, 400}},
                     {3, {300, 350}},
                     {3, {500, 360}},
                     {3, {520, 300}},
                     {3, {360, 340}},
                     {3, {100, 100}}}});
  // A shadow edge through another corner.  The viewer sits so that the
  // wall's shrunk lower-right corner lies exactly at 45 degrees from it,
  // the lower edge of the wall's span and a bin edge of pseudo-angle; the
  // corner (c) of a rectangle farther along that line is seen grazing it.
  // Coordinates stay in [256, 1024) so every difference below is exact.
  {
    const geom::Rect wall({540, 600}, {640, 700});
    const geom::Vec2 inner_corner{wall.hi.x - e, wall.lo.y + e};
    const geom::Vec2 viewer{inner_corner.x - 100, inner_corner.y - 100};
    const geom::Vec2 c{viewer.x + 300, viewer.y + 300};
    scenes.push_back({"ShadowEdgeThroughCorner",
                      {wall,
                       {c, {c.x + 20, c.y + 20}},
                       {{viewer.x - 20, viewer.y - 20}, viewer},
                       {{700, 720}, {720, 740}}},
                      // A vertex in front of the wall inside its span, and
                      // the viewer again as a fixed vertex.
                      {{3, {viewer.x + 60, viewer.y + 90}}, {3, viewer}}});
  }
  // A viewer 1e-6 below a wide rectangle sees it across nearly a
  // half-turn; a second one 1e-3 below, where the map does apply.
  scenes.push_back({"NearHalfTurn",
                    {{{100, 700}, {900, 710}},
                     {{300, 800}, {320, 820}},
                     {{700, 750}, {720, 770}},
                     {{50, 650}, {70, 670}},
                     {{950, 690}, {970, 705}},
                     {{400, 600}, {420, 620}}},
                    {{5, {500, 700 - 1e-6}},
                     {5, {300, 700 - 1e-3}},
                     {5, {900 + 1e-6, 705}}}});
  // Sight lines that leave a corner into its rectangle's quadrant but pass
  // the shrunk interior by: the rectangle is thicker than 2*kEpsInterior
  // and thinner than kEpsInterior / tan(angle) of the lines, so the O(1)
  // own-rectangle test must leave them to the walk.
  scenes.push_back({"SlantPastThinInterior",
                    {{{440, 100}, {440 + 3 * e, 300}},
                     {{700, 120}, {720, 140}}},
                    {{0, {600, 150}}, {0, {600, 250}}, {1, {300, 130}}}});
  return scenes;
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, ShadowMapVsOracle, ::testing::ValuesIn(ShadowScenes()),
    [](const ::testing::TestParamInfo<ShadowScene>& info) {
      return info.param.name;
    });

// The map fires across angle 0: a viewer whose nearest wall straddles the
// +x axis pays no sight-line walk for the corners hidden behind it.
TEST(ShadowMapTest, HiddenCandidatesAcrossAngleZeroCostNoWalk) {
  VisGraph g(kDomain);
  g.AddObstacle({{300, 450}, {320, 550}}, 0);
  for (int i = 0; i < 4; ++i) {
    const double y = 460.0 + 20.0 * i;  // below and above the axis y = 500
    g.AddObstacle({{500, y}, {510, y + 10}}, 1 + i);
  }
  QueryStats stats;
  g.set_stats(&stats);
  const VertexId viewer = g.AddFixedVertex({200, 500});
  // Only the wall's two near corners are in sight.  Of the rest, the far
  // corners of the small rectangles face away from the viewer and cost no
  // walk; the wall's far corners and the eight near corners of the small
  // rectangles would cost a test each without the map.
  EXPECT_EQ(g.Neighbors(viewer).size(), 2u);
  EXPECT_LT(stats.visibility_tests, 10u) << stats.visibility_tests;
}

}  // namespace
}  // namespace vis
}  // namespace conn
