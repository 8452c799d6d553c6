// Micro-benchmarks and design ablation of the local visibility graph.
//
// The paper's central scalability argument (Section 4.1) is that the local
// graph is cheap to grow and to re-query as IOR streams obstacles in.  This
// binary isolates that claim:
//   * Incremental (shipped): one graph, adjacency cached and patched in
//     place across insertions; queries interleave with growth.  The prune
//     visits only lists whose reach box meets the new rectangle; the
//     corner sweep skips candidates its angular shadow map proves hidden
//     behind a closer obstacle and walks the rest, last blocker first.
//     `vis_tests` (exact segment-vs-rectangle tests per AddObstacle) and
//     `SVG` (vertices of the grown graph) are deterministic.
//   * RebuildEachQuery: a fresh graph is constructed from the obstacles
//     retrieved so far at every query checkpoint — the cost profile of NOT
//     reusing the local graph across data points.
//   * FullVisGraphBuild: the classical global O(V^2 |O|) construction of
//     Section 2.4 (what the paper avoids entirely).
//   * DijkstraScanWarm: a single scan over a fully cached graph.
//   * SightLineWalk: the grid-walk visibility predicate in isolation.

#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "datagen/datasets.h"
#include "vis/dijkstra.h"
#include "vis/full_vis_graph.h"
#include "vis/obstacle_set.h"
#include "vis/vis_graph.h"

namespace conn {
namespace {

std::vector<geom::Rect> LocalObstacles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const geom::Vec2 lo{rng.Uniform(0, 9500), rng.Uniform(0, 9500)};
    rects.push_back(geom::Rect(
        lo, {lo.x + rng.Uniform(5, 200), lo.y + rng.Uniform(5, 60)}));
  }
  return rects;
}

constexpr int kQueryEvery = 16;  // insertions between re-queries (IOR-like)

// The shipped design: grow one graph, re-query as it grows.
void BM_IncrementalGrowAndQuery(benchmark::State& state) {
  const auto rects = LocalObstacles(state.range(0), 1);
  QueryStats stats;  // insertions only; every iteration grows the same graph
  size_t svg = 0;
  for (auto _ : state) {
    vis::VisGraph g(geom::Rect({0, 0}, {10000, 10000}));
    const vis::VertexId t = g.AddFixedVertex({9000, 9000});
    for (size_t i = 0; i < rects.size(); ++i) {
      g.set_stats(&stats);
      g.AddObstacle(rects[i], i);
      g.set_stats(nullptr);
      if ((i % kQueryEvery) == 0) {
        vis::DijkstraScan scan(&g, {500, 500});
        benchmark::DoNotOptimize(scan.SettleTargets({t}));
      }
    }
    vis::DijkstraScan scan(&g, {500, 500});
    benchmark::DoNotOptimize(scan.SettleTargets({t}));
    svg = g.VertexCount();
  }
  const double insertions =
      static_cast<double>(state.iterations()) * rects.size();
  state.counters["vis_tests"] =
      static_cast<double>(stats.visibility_tests) / insertions;
  state.counters["SVG"] = static_cast<double>(svg);
}
BENCHMARK(BM_IncrementalGrowAndQuery)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Ablation: no reuse — rebuild the local graph from scratch at every
// query checkpoint (all adjacency recomputed from zero).
void BM_RebuildEachQuery(benchmark::State& state) {
  const auto rects = LocalObstacles(state.range(0), 1);
  for (auto _ : state) {
    for (size_t i = 0; i < rects.size(); i += kQueryEvery) {
      vis::VisGraph g(geom::Rect({0, 0}, {10000, 10000}));
      const vis::VertexId t = g.AddFixedVertex({9000, 9000});
      for (size_t j = 0; j <= i; ++j) g.AddObstacle(rects[j], j);
      vis::DijkstraScan scan(&g, {500, 500});
      benchmark::DoNotOptimize(scan.SettleTargets({t}));
    }
  }
}
BENCHMARK(BM_RebuildEachQuery)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Full global graph construction (Section 2.4 baseline): O(V^2 |O|).
void BM_FullVisGraphBuild(benchmark::State& state) {
  const auto rects = LocalObstacles(state.range(0), 2);
  for (auto _ : state) {
    vis::FullVisGraph g(rects);
    g.Build();
    benchmark::DoNotOptimize(g.VertexCount());
  }
}
BENCHMARK(BM_FullVisGraphBuild)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Dijkstra over a warm (fully cached) local graph.
void BM_DijkstraScanWarm(benchmark::State& state) {
  const auto rects = LocalObstacles(state.range(0), 3);
  vis::VisGraph g(geom::Rect({0, 0}, {10000, 10000}));
  const vis::VertexId t = g.AddFixedVertex({9000, 9000});
  for (size_t i = 0; i < rects.size(); ++i) g.AddObstacle(rects[i], i);
  {
    vis::DijkstraScan warmup(&g, {500, 500});
    warmup.SettleTargets({t});
  }
  Rng rng(4);
  for (auto _ : state) {
    vis::DijkstraScan scan(&g, {rng.Uniform(0, 10000), rng.Uniform(0, 10000)});
    benchmark::DoNotOptimize(scan.SettleTargets({t}));
  }
}
BENCHMARK(BM_DijkstraScanWarm)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Same scan workload on a pooled ScanArena: per-scan setup drops from the
// O(V) array init + O(V log V) seed sort to an O(1) epoch bump plus
// output-sensitive ring seeding.
void BM_DijkstraScanArena(benchmark::State& state) {
  const auto rects = LocalObstacles(state.range(0), 3);
  vis::VisGraph g(geom::Rect({0, 0}, {10000, 10000}));
  const vis::VertexId t = g.AddFixedVertex({9000, 9000});
  for (size_t i = 0; i < rects.size(); ++i) g.AddObstacle(rects[i], i);
  vis::ScanArena arena;
  {
    vis::DijkstraScan warmup(&g, {500, 500}, &arena);
    warmup.SettleTargets({t});
  }
  Rng rng(4);
  for (auto _ : state) {
    vis::DijkstraScan scan(&g, {rng.Uniform(0, 10000), rng.Uniform(0, 10000)},
                           &arena);
    benchmark::DoNotOptimize(scan.SettleTargets({t}));
  }
}
BENCHMARK(BM_DijkstraScanArena)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The visibility predicate under AddObstacle: ObstacleSet::Visible over a
// query-sized local obstacle set (~130 obstacles in a 2500-unit window of
// the 64-cell grid's 10000-unit domain, as one query's retrieval leaves
// them) with sight lines of 100-2000 units from inside the window, i.e.
// the grid walk plus the exact tests on the candidates it yields.
// `vis_tests` counts those exact tests per sight line.
void BM_SightLineWalk(benchmark::State& state) {
  vis::ObstacleSet set(geom::Rect({0, 0}, {10000, 10000}), 64);
  Rng rng(5);
  for (uint32_t i = 0; i < 130; ++i) {
    const geom::Vec2 lo{rng.Uniform(4000, 6300), rng.Uniform(4000, 6300)};
    set.Add(geom::Rect(lo, {lo.x + rng.Uniform(5, 200),
                            lo.y + rng.Uniform(5, 60)}),
            i);
  }
  std::vector<geom::Segment> lines(1024);
  for (geom::Segment& s : lines) {
    const geom::Vec2 a{rng.Uniform(4000, 6500), rng.Uniform(4000, 6500)};
    const double len = rng.Uniform(100, 2000);
    const double angle = rng.Uniform(0, 2 * std::numbers::pi);
    s = geom::Segment(a,
                      a + geom::Vec2{std::cos(angle), std::sin(angle)} * len);
  }
  uint64_t tests = 0;
  size_t visible = 0;
  for (auto _ : state) {
    for (const geom::Segment& s : lines) {
      visible += set.Visible(s.a, s.b, &tests);
    }
  }
  benchmark::DoNotOptimize(visible);
  const double walks = static_cast<double>(state.iterations()) * lines.size();
  state.SetItemsProcessed(static_cast<int64_t>(walks));
  state.counters["vis_tests"] = static_cast<double>(tests) / walks;
}
BENCHMARK(BM_SightLineWalk)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace conn

BENCHMARK_MAIN();
