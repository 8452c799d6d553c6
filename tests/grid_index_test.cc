// Unit tests for the uniform grid over local obstacles: candidate queries
// must be supersets of the exact answers (conservativeness) and deduplicated,
// the sight-line walk must visit exactly the crossed cells, in order,
// without ever changing what ObstacleSet::Visible answers, and Visible must
// stop at the first blocker on the walk.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/predicates.h"
#include "geom/vec.h"
#include "vis/full_vis_graph.h"
#include "vis/grid_index.h"
#include "vis/obstacle_set.h"

namespace conn {
namespace vis {
namespace {

TEST(GridIndexTest, PointQueryFindsCoveringItems) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 10);
  grid.Insert(0, geom::Rect({5, 5}, {15, 15}));
  grid.Insert(1, geom::Rect({50, 50}, {60, 60}));
  std::vector<uint32_t> out;
  grid.CandidatesAtPoint({10, 10}, &out);
  EXPECT_TRUE(std::count(out.begin(), out.end(), 0u) == 1);
  out.clear();
  grid.CandidatesAtPoint({55, 55}, &out);
  EXPECT_TRUE(std::count(out.begin(), out.end(), 1u) == 1);
}

TEST(GridIndexTest, RectQueryIsConservative) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 8);
  grid.Insert(0, geom::Rect({5, 5}, {15, 15}));
  grid.Insert(1, geom::Rect({80, 80}, {90, 90}));
  std::vector<uint32_t> out;
  grid.CandidatesInRect(geom::Rect({0, 0}, {20, 20}), &out);
  EXPECT_EQ(std::count(out.begin(), out.end(), 0u), 1);
}

TEST(GridIndexTest, NoDuplicatesForSpanningItems) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 16);
  grid.Insert(0, geom::Rect({0, 0}, {100, 100}));  // spans every cell
  std::vector<uint32_t> out;
  grid.CandidatesInRect(geom::Rect({0, 0}, {100, 100}), &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  grid.CandidatesAlongSegment(geom::Segment({0, 0}, {100, 100}), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(GridIndexTest, ItemsOutsideDomainAreClamped) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 4);
  grid.Insert(0, geom::Rect({150, 150}, {160, 160}));  // outside
  std::vector<uint32_t> out;
  grid.CandidatesAtPoint({99, 99}, &out);  // border cell
  EXPECT_EQ(out.size(), 1u);  // clamped into the corner cell, still findable
}

class GridSegmentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridSegmentProperty, SegmentCandidatesAreSupersetOfIntersecting) {
  Rng rng(GetParam());
  const geom::Rect domain({0, 0}, {1000, 1000});
  GridIndex grid(domain, 32);
  std::vector<geom::Rect> rects;
  for (uint32_t i = 0; i < 200; ++i) {
    const geom::Vec2 lo{rng.Uniform(0, 950), rng.Uniform(0, 950)};
    rects.push_back(geom::Rect(
        lo, {lo.x + rng.Uniform(1, 50), lo.y + rng.Uniform(1, 50)}));
    grid.Insert(i, rects.back());
  }
  for (int qi = 0; qi < 50; ++qi) {
    const geom::Segment s({rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                          {rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    std::vector<uint32_t> cand;
    grid.CandidatesAlongSegment(s, &cand);
    const std::set<uint32_t> cand_set(cand.begin(), cand.end());
    EXPECT_EQ(cand_set.size(), cand.size()) << "duplicates returned";
    for (uint32_t i = 0; i < rects.size(); ++i) {
      if (geom::SegmentIntersectsRect(s, rects[i])) {
        EXPECT_TRUE(cand_set.count(i))
            << "grid missed intersecting obstacle " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridSegmentProperty,
                         ::testing::Range<uint64_t>(1, 7));

// --- the sight-line walk ---------------------------------------------------

// Clamped cell of a coordinate, computed the way GridIndex::Insert does.
int CellOf(double v, double lo, double cell, int n) {
  return std::clamp(static_cast<int>(std::floor((v - lo) / cell)), 0, n - 1);
}

// A grid holding one point item per cell (item = cy * n + cx), so the items
// a walk visits name the cells it visits, in order.
GridIndex CellProbeGrid(const geom::Rect& domain, int n) {
  GridIndex grid(domain, n);
  const double w = domain.Width() / n, h = domain.Height() / n;
  for (int cy = 0; cy < n; ++cy) {
    for (int cx = 0; cx < n; ++cx) {
      grid.InsertPoint(static_cast<uint32_t>(cy * n + cx),
                       {domain.lo.x + (cx + 0.5) * w,
                        domain.lo.y + (cy + 0.5) * h});
    }
  }
  return grid;
}

TEST(GridWalkTest, VisitsCellsInOrderFromStartToEnd) {
  Rng rng(0x5EED);
  const geom::Rect domain({0, 0}, {1000, 1000});
  constexpr int kN = 16;
  const double cell = 1000.0 / kN;
  const GridIndex grid = CellProbeGrid(domain, kN);
  for (int qi = 0; qi < 400; ++qi) {
    // Mostly in-domain, some leaving it on either side.
    const double lo = qi % 4 == 0 ? -400 : 0, hi = qi % 4 == 0 ? 1400 : 1000;
    const geom::Segment s({rng.Uniform(lo, hi), rng.Uniform(lo, hi)},
                          {rng.Uniform(lo, hi), rng.Uniform(lo, hi)});
    std::vector<uint32_t> cells;
    ASSERT_TRUE(grid.VisitAlongSegment(s, [&](uint32_t c) {
      cells.push_back(c);
      return true;
    }));
    const int col_step = s.b.x < s.a.x ? -1 : 1;
    const int row_step = s.b.y < s.a.y ? -1 : 1;
    // Column-major in the direction of travel; rows within a column in the
    // direction of travel too.
    for (size_t i = 1; i < cells.size(); ++i) {
      const int px = cells[i - 1] % kN, py = cells[i - 1] / kN;
      const int x = cells[i] % kN, y = cells[i] / kN;
      ASSERT_GE((x - px) * col_step, 0) << "column order, query " << qi;
      if (x == px) {
        ASSERT_GT((y - py) * row_step, 0) << "row order, query " << qi;
      }
    }
    // Starts in s.a's cell, ends in s.b's.
    ASSERT_FALSE(cells.empty());
    EXPECT_EQ(cells.front(), static_cast<uint32_t>(
                                 CellOf(s.a.y, 0, cell, kN) * kN +
                                 CellOf(s.a.x, 0, cell, kN)));
    EXPECT_EQ(cells.back(), static_cast<uint32_t>(
                                CellOf(s.b.y, 0, cell, kN) * kN +
                                CellOf(s.b.x, 0, cell, kN)));
    // Exact: a generic segment crosses |dcol| + |drow| + 1 cells, and the
    // walk visits no others.
    const int dcol = std::abs(CellOf(s.b.x, 0, cell, kN) -
                              CellOf(s.a.x, 0, cell, kN));
    const int drow = std::abs(CellOf(s.b.y, 0, cell, kN) -
                              CellOf(s.a.y, 0, cell, kN));
    EXPECT_EQ(cells.size(), static_cast<size_t>(dcol + drow + 1))
        << "query " << qi;
    // Conservative: every sampled point of the segment is in a visited cell.
    const std::set<uint32_t> seen(cells.begin(), cells.end());
    for (int i = 0; i <= 1000; ++i) {
      const geom::Vec2 p = s.a + s.Delta() * (i / 1000.0);
      const uint32_t c = static_cast<uint32_t>(CellOf(p.y, 0, cell, kN) * kN +
                                               CellOf(p.x, 0, cell, kN));
      ASSERT_TRUE(seen.count(c)) << "missed cell " << c << " query " << qi;
    }
  }
}

TEST(GridWalkTest, StopsAtFirstRejectedItemAndSharesOrderWithCandidates) {
  Rng rng(0x5EEE);
  const geom::Rect domain({0, 0}, {1000, 1000});
  const GridIndex grid = CellProbeGrid(domain, 16);
  for (int qi = 0; qi < 50; ++qi) {
    const geom::Segment s({rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                          {rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
    std::vector<uint32_t> visited, candidates;
    grid.VisitAlongSegment(s, [&](uint32_t c) {
      visited.push_back(c);
      return true;
    });
    grid.CandidatesAlongSegment(s, &candidates);
    EXPECT_EQ(candidates, visited) << "one traversal, one order";
    const size_t stop_after = 1 + rng.UniformU64(visited.size());
    std::vector<uint32_t> prefix;
    const bool finished = grid.VisitAlongSegment(s, [&](uint32_t c) {
      prefix.push_back(c);
      return prefix.size() < stop_after;
    });
    EXPECT_FALSE(finished);
    EXPECT_EQ(prefix, std::vector<uint32_t>(visited.begin(),
                                            visited.begin() + stop_after));
  }
}

TEST(GridWalkTest, VerticalAndZeroLengthSegments) {
  const geom::Rect domain({0, 0}, {1000, 1000});
  const GridIndex grid = CellProbeGrid(domain, 10);
  auto walk = [&](geom::Segment s) {
    std::vector<uint32_t> cells;
    grid.VisitAlongSegment(s, [&](uint32_t c) {
      cells.push_back(c);
      return true;
    });
    return cells;
  };
  // Inside one column, downward: rows 8..2 of column 3.
  EXPECT_EQ(walk(geom::Segment({350, 850}, {350, 250})),
            (std::vector<uint32_t>{83, 73, 63, 53, 43, 33, 23}));
  // On a column boundary: both columns it touches, each bottom to top.
  EXPECT_EQ(walk(geom::Segment({400, 150}, {400, 350})),
            (std::vector<uint32_t>{13, 23, 33, 14, 24, 34}));
  // Zero length, at a cell corner: the four cells meeting there.
  EXPECT_EQ(walk(geom::Segment({500, 500}, {500, 500})),
            (std::vector<uint32_t>{44, 54, 45, 55}));
  // Zero length, out of the domain: the clamped corner cell.
  EXPECT_EQ(walk(geom::Segment({-50, 2000}, {-50, 2000})),
            (std::vector<uint32_t>{90}));
}

// The ObstacleSet::Visible walk on one sight line: it tests the candidates
// in CandidatesAlongSegment order and stops at the first that blocks.
void ExpectWalkStopsAtFirstBlocker(const ObstacleSet& set,
                                   const std::vector<geom::Rect>& rects,
                                   geom::Vec2 a, geom::Vec2 b) {
  const geom::Segment sight(a, b);
  SCOPED_TRACE(::testing::Message() << "sight line (" << a.x << ", " << a.y
                                    << ") -> (" << b.x << ", " << b.y << ")");
  uint64_t tests = 0;
  const bool visible = set.Visible(a, b, &tests);
  std::vector<uint32_t> walk;
  set.CandidatesAlongSegment(sight, &walk);
  size_t stop = walk.size();
  for (size_t i = 0; i < walk.size(); ++i) {
    if (geom::SegmentCrossesInterior(sight, rects[walk[i]])) {
      stop = i;
      break;
    }
  }
  EXPECT_EQ(visible, stop == walk.size());
  EXPECT_EQ(tests, visible ? walk.size() : stop + 1);
}

// Brute force (the FullVisGraph::Visible loop) against the grid-walk
// predicate over every ordered pair of \p points, and the walk's stop at
// the first blocker on each pair.  Returns the number of blocked pairs so
// callers can assert the scene is not vacuous.
size_t ExpectVisibleMatchesOracle(const ObstacleSet& set,
                                  const std::vector<geom::Rect>& rects,
                                  const std::vector<geom::Vec2>& points) {
  const FullVisGraph oracle(rects);
  size_t blocked = 0;
  for (const geom::Vec2& a : points) {
    for (const geom::Vec2& b : points) {
      const bool expected = oracle.Visible(a, b);
      blocked += expected ? 0 : 1;
      EXPECT_EQ(set.Visible(a, b), expected)
          << "sight line (" << a.x << ", " << a.y << ") -> (" << b.x << ", "
          << b.y << ")";
      ExpectWalkStopsAtFirstBlocker(set, rects, a, b);
    }
  }
  return blocked;
}

class GridWalkVisibility : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridWalkVisibility, RandomScenesMatchBruteForce) {
  Rng rng(GetParam());
  const geom::Rect domain({0, 0}, {10000, 10000});
  for (const int cells : {16, 64}) {
    ObstacleSet set(domain, cells);
    std::vector<geom::Rect> rects;
    std::vector<geom::Vec2> points;
    for (uint32_t i = 0; i < 130; ++i) {
      // A few obstacles straddle or leave the domain (clamped cells).
      const geom::Vec2 lo{rng.Uniform(-500, 10300), rng.Uniform(-500, 10300)};
      rects.push_back(geom::Rect(
          lo, {lo.x + rng.Uniform(5, 400), lo.y + rng.Uniform(5, 120)}));
      set.Add(rects.back(), i);
      if (i % 6 == 0) {
        for (const geom::Vec2& c : rects.back().Corners()) points.push_back(c);
      }
    }
    for (int i = 0; i < 40; ++i) {
      points.push_back({rng.Uniform(-1000, 11000), rng.Uniform(-1000, 11000)});
    }
    EXPECT_GT(ExpectVisibleMatchesOracle(set, rects, points), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridWalkVisibility,
                         ::testing::Range<uint64_t>(1, 7));

TEST(GridWalkVisibilityTest, AdversarialScenesMatchBruteForce) {
  // 10 x 10 cells of 100: obstacle edges on cell boundaries, obstacles
  // touching at edges and corners, straddling the domain edge, outside it,
  // and one too thin to have an interior.
  const geom::Rect domain({0, 0}, {1000, 1000});
  const std::vector<geom::Rect> rects = {
      {{200, 200}, {300, 300}},    {{300, 200}, {400, 300}},
      {{400, 300}, {500, 400}},    {{250, 450}, {350, 550}},
      {{700, 650}, {900, 950}},    {{600, 100}, {600 + 1e-7, 900}},
      {{-50, 700}, {50, 800}},     {{1100, 400}, {1200, 600}},
      {{-200, -200}, {-100, -100}}, {{500, 0}, {600, 100}},
      {{100, 600}, {200, 900}},    {{100, 900}, {200, 1000}},
  };
  ObstacleSet set(domain, 10);
  for (uint32_t i = 0; i < rects.size(); ++i) set.Add(rects[i], i);

  // Cell corners (in and out of the domain), obstacle corners, and obstacle
  // corners nudged off by amounts around the walk's padding.
  std::vector<geom::Vec2> points;
  for (int y = -1; y <= 11; y += 2) {
    for (int x = -1; x <= 11; ++x) points.push_back({x * 100.0, y * 100.0});
  }
  for (const geom::Rect& r : rects) {
    for (const geom::Vec2& c : r.Corners()) {
      points.push_back(c);
      for (const double e : {1e-12, 1e-7, 1e-3}) {
        points.push_back({c.x + e, c.y - e});
        points.push_back({c.x - e, c.y + e});
      }
    }
  }
  EXPECT_GT(ExpectVisibleMatchesOracle(set, rects, points), 0u);

  // Near-vertical and near-horizontal sight lines from every point, plus
  // exactly axis-parallel ones (which run along cell boundaries from the
  // cell corners above).
  const FullVisGraph oracle(rects);
  const geom::Vec2 dirs[] = {{0, 1},      {1, 0},      {1e-12, 1},
                             {1, -1e-12}, {-1e-300, -1}, {1e-9, -1},
                             {-1, 1e-9},  {-1, 0},     {0, -1}};
  for (const geom::Vec2& a : points) {
    for (const geom::Vec2& d : dirs) {
      for (const double len : {37.0, 250.0, 1300.0}) {
        const geom::Vec2 b = a + d * len;
        const bool expected = oracle.Visible(a, b);
        EXPECT_EQ(set.Visible(a, b), expected)
            << "sight line (" << a.x << ", " << a.y << ") -> (" << b.x
            << ", " << b.y << ")";
        ExpectWalkStopsAtFirstBlocker(set, rects, a, b);
      }
    }
  }
}

TEST(GridRingTest, RingsPartitionAllPointItems) {
  Rng rng(0x41B3);
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 8);
  // Include out-of-domain points: they clamp into border cells and must
  // still be enumerated by some ring.
  std::vector<geom::Vec2> pts;
  for (uint32_t i = 0; i < 60; ++i) {
    pts.push_back({rng.Uniform(-20, 120), rng.Uniform(-20, 120)});
    grid.InsertPoint(i, pts.back());
  }
  const geom::Vec2 center{rng.Uniform(0, 100), rng.Uniform(0, 100)};
  std::multiset<uint32_t> seen;
  for (int ring = 0; !std::isinf(grid.RingMinDist(center, ring)); ++ring) {
    grid.VisitRing(center, ring, [&](uint32_t item) { seen.insert(item); });
  }
  ASSERT_EQ(seen.size(), pts.size()) << "each point in exactly one ring cell";
  for (uint32_t i = 0; i < pts.size(); ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(GridRingTest, RingMinDistLowerBoundsItemDistances) {
  Rng rng(0x41B4);
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 8);
  std::vector<geom::Vec2> pts;
  for (uint32_t i = 0; i < 80; ++i) {
    pts.push_back({rng.Uniform(-15, 115), rng.Uniform(-15, 115)});
    grid.InsertPoint(i, pts.back());
  }
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec2 center{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    double lb = 0.0;
    for (int ring = 0;; ++ring) {
      lb = grid.RingMinDist(center, ring);
      if (std::isinf(lb)) break;
      EXPECT_GE(lb, 0.0);
      // Every item enumerated at ring indices >= ring must be at least lb
      // away — the contract lazy seeding termination rests on.
      for (int r2 = ring; !std::isinf(grid.RingMinDist(center, r2)); ++r2) {
        grid.VisitRing(center, r2, [&](uint32_t item) {
          EXPECT_GE(geom::Dist(center, pts[item]) + 1e-12, lb)
              << "item " << item << " ring " << r2 << " vs bound at " << ring;
        });
      }
    }
  }
}

TEST(GridRingTest, RingMinDistIsMonotoneNondecreasing) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 16);
  const geom::Vec2 center{33.0, 71.0};
  double prev = grid.RingMinDist(center, 0);
  for (int ring = 1; ring < 40; ++ring) {
    const double cur = grid.RingMinDist(center, ring);
    EXPECT_GE(cur, prev) << "ring " << ring;
    prev = cur;
  }
  EXPECT_TRUE(std::isinf(prev));
}

TEST(GridRingTest, RemovePointDropsItemFromEnumeration) {
  GridIndex grid(geom::Rect({0, 0}, {100, 100}), 8);
  grid.InsertPoint(0, {10, 10});
  grid.InsertPoint(1, {50, 50});
  grid.RemovePoint(0, {10, 10});
  std::vector<uint32_t> seen;
  for (int ring = 0; !std::isinf(grid.RingMinDist({50, 50}, ring)); ++ring) {
    grid.VisitRing({50, 50}, ring,
                   [&](uint32_t item) { seen.push_back(item); });
  }
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1u);
  // Slot reuse after removal (the recycled fixed-vertex path).
  grid.InsertPoint(0, {90, 90});
  seen.clear();
  for (int ring = 0; !std::isinf(grid.RingMinDist({90, 90}, ring)); ++ring) {
    grid.VisitRing({90, 90}, ring,
                   [&](uint32_t item) { seen.push_back(item); });
  }
  EXPECT_EQ(seen.size(), 2u);
}

}  // namespace
}  // namespace vis
}  // namespace conn
