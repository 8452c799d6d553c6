// Property tests for the visibility graph's incremental maintenance — the
// performance-critical path added on top of the paper's description.  A
// graph grown obstacle-by-obstacle (with cached adjacency being patched in
// place) must behave exactly like a graph built from scratch over the same
// final obstacle set, regardless of when adjacency was first touched.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace vis {
namespace {

const geom::Rect kDomain({0, 0}, {1000, 1000});

std::vector<geom::Rect> RandomRects(Rng* rng, int n) {
  std::vector<geom::Rect> rects;
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 lo{rng->Uniform(50, 900), rng->Uniform(50, 900)};
    rects.push_back(geom::Rect(
        lo, {lo.x + rng->Uniform(5, 90), lo.y + rng->Uniform(5, 90)}));
  }
  return rects;
}

class IncrementalEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalEquivalence, PatchedGraphEqualsFreshGraph) {
  Rng rng(GetParam());
  const auto rects = RandomRects(&rng, 25);
  const geom::Vec2 target{950, 950};

  // Incremental graph: interleave insertions with Dijkstra scans so that
  // cached adjacency exists *before* later obstacles arrive (exercising
  // both the prune pass and the reciprocal patch).
  VisGraph inc(kDomain);
  const VertexId t_inc = inc.AddFixedVertex(target);
  std::vector<geom::Vec2> sources;
  for (size_t i = 0; i < rects.size(); ++i) {
    inc.AddObstacle(rects[i], i);
    if (i % 5 == 2) {
      const geom::Vec2 src{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      DijkstraScan warm(&inc, src);
      warm.SettleTargets({t_inc});  // touch (and cache) many adjacencies
      sources.push_back(src);
    }
  }

  // Fresh graph over the final obstacle set.
  VisGraph fresh(kDomain);
  const VertexId t_fresh = fresh.AddFixedVertex(target);
  for (size_t i = 0; i < rects.size(); ++i) fresh.AddObstacle(rects[i], i);

  ASSERT_EQ(inc.VertexCount(), fresh.VertexCount());

  // Distances from a batch of probes must agree exactly — to the target
  // and to every graph vertex.
  for (int probe = 0; probe < 6; ++probe) {
    const geom::Vec2 src{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    DijkstraScan a(&inc, src);
    DijkstraScan b(&fresh, src);
    a.SettleTargets({t_inc});
    b.SettleTargets({t_fresh});
    // Drain both completely.
    VertexId v;
    double d;
    int32_t pred;
    while (a.Next(&v, &d, &pred)) {
    }
    while (b.Next(&v, &d, &pred)) {
    }
    for (VertexId u = 0; u < inc.VertexCount(); ++u) {
      const double da = a.DistOf(u);
      const double db = b.DistOf(u);
      if (std::isinf(da) || std::isinf(db)) {
        EXPECT_EQ(std::isinf(da), std::isinf(db)) << "vertex " << u;
      } else {
        EXPECT_NEAR(da, db, 1e-9) << "vertex " << u;
      }
    }
  }
}

TEST_P(IncrementalEquivalence, NeighborsAreSymmetricAndVisible) {
  Rng rng(GetParam() ^ 0x5A5A);
  const auto rects = RandomRects(&rng, 20);
  VisGraph g(kDomain);
  g.AddFixedVertex({500, 500});
  for (size_t i = 0; i < rects.size(); ++i) {
    g.AddObstacle(rects[i], i);
    // Touch a random vertex's adjacency mid-build.
    g.Neighbors(static_cast<VertexId>(rng.UniformU64(g.VertexCount())));
  }

  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    for (const VisEdge& e : g.Neighbors(v)) {
      // Every cached edge must still be an unblocked sight-line...
      EXPECT_TRUE(g.Visible(g.VertexPos(v), g.VertexPos(e.to)))
          << v << "->" << e.to;
      EXPECT_NEAR(e.length, geom::Dist(g.VertexPos(v), g.VertexPos(e.to)),
                  1e-9);
      // ...and present in the reverse list (graph is undirected).
      bool reciprocal = false;
      for (const VisEdge& r : g.Neighbors(e.to)) {
        if (r.to == v) reciprocal = true;
      }
      EXPECT_TRUE(reciprocal) << v << "<->" << e.to;
    }
  }
}

TEST_P(IncrementalEquivalence, ScanLogReplayMatchesNext) {
  Rng rng(GetParam() ^ 0x1DE);
  const auto rects = RandomRects(&rng, 15);
  VisGraph g(kDomain);
  g.AddFixedVertex({900, 100});
  for (size_t i = 0; i < rects.size(); ++i) g.AddObstacle(rects[i], i);

  const geom::Vec2 src{50, 50};
  DijkstraScan via_next(&g, src);
  std::vector<DijkstraScan::Settled> seen;
  VertexId v;
  double d;
  int32_t pred;
  while (via_next.Next(&v, &d, &pred)) seen.push_back({v, d, pred});

  DijkstraScan via_log(&g, src);
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_TRUE(via_log.EnsureSettled(i));
    EXPECT_EQ(via_log.log()[i].v, seen[i].v);
    EXPECT_DOUBLE_EQ(via_log.log()[i].dist, seen[i].dist);
    EXPECT_EQ(via_log.log()[i].pred, seen[i].pred);
  }
  EXPECT_FALSE(via_log.EnsureSettled(seen.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace vis
}  // namespace conn
