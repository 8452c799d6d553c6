// Micro-benchmarks of the R*-tree: STR bulk load vs one-by-one insertion,
// best-first stream consumption, and range queries — the access-path costs
// under every CONN query.
//
// The best-first benchmarks report `pages`, the node pages one stream
// fetches (the trees are unbuffered, so every fetch reads a page).  The
// objects are seeded, so the count is exact on any machine and
// tools/bench_compare.py gates it against baselines/BENCH_micro_rtree.json.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "storage/pager.h"
#include "datagen/datasets.h"
#include "rtree/best_first.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace {

/// Sets the `pages` counter: page fetches of \p tree since \p faults0,
/// per iteration of \p state.
void ReportPagesPerIteration(benchmark::State& state,
                             const rtree::RStarTree& tree, uint64_t faults0) {
  state.counters["pages"] =
      static_cast<double>(tree.pager().faults() - faults0) /
      static_cast<double>(state.iterations());
}

std::vector<rtree::DataObject> MakeObjects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::DataObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    objects.push_back(rtree::DataObject::Point(
        {rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i));
  }
  return objects;
}

void BM_StrBulkLoad(benchmark::State& state) {
  const auto objects = MakeObjects(state.range(0), 1);
  for (auto _ : state) {
    auto tree = rtree::StrBulkLoad(objects);
    benchmark::DoNotOptimize(tree.value().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrBulkLoad)->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_InsertionBuild(benchmark::State& state) {
  const auto objects = MakeObjects(state.range(0), 2);
  for (auto _ : state) {
    rtree::RStarTree tree;
    for (const auto& o : objects) {
      benchmark::DoNotOptimize(tree.Insert(o).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertionBuild)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_BestFirstFullDrain(benchmark::State& state) {
  const auto objects = MakeObjects(state.range(0), 3);
  rtree::RStarTree tree = std::move(rtree::StrBulkLoad(objects)).value();
  const geom::Segment q({4000, 5000}, {6000, 5000});
  const uint64_t faults0 = tree.pager().faults();
  for (auto _ : state) {
    rtree::BestFirstIterator it(tree, q);
    rtree::DataObject obj;
    double dist;
    size_t count = 0;
    while (it.Next(&obj, &dist)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  ReportPagesPerIteration(state, tree, faults0);
}
BENCHMARK(BM_BestFirstFullDrain)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_BestFirstTop100(benchmark::State& state) {
  const auto objects = MakeObjects(100000, 4);
  rtree::RStarTree tree = std::move(rtree::StrBulkLoad(objects)).value();
  const geom::Segment q({4000, 5000}, {6000, 5000});
  const uint64_t faults0 = tree.pager().faults();
  for (auto _ : state) {
    rtree::BestFirstIterator it(tree, q);
    rtree::DataObject obj;
    double dist;
    for (int i = 0; i < 100 && it.Next(&obj, &dist); ++i) {
    }
    benchmark::DoNotOptimize(dist);
  }
  ReportPagesPerIteration(state, tree, faults0);
}
BENCHMARK(BM_BestFirstTop100)->Unit(benchmark::kMicrosecond);

void BM_RangeQuery(benchmark::State& state) {
  const auto objects = MakeObjects(100000, 5);
  rtree::RStarTree tree = std::move(rtree::StrBulkLoad(objects)).value();
  Rng rng(6);
  std::vector<geom::Rect> queries(256);
  for (auto& r : queries) {
    const geom::Vec2 lo{rng.Uniform(0, 9000), rng.Uniform(0, 9000)};
    r = geom::Rect(lo, {lo.x + 500, lo.y + 500});
  }
  size_t i = 0;
  std::vector<rtree::DataObject> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeQuery(queries[i++ & 255], &out).ok());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RangeQuery)->Unit(benchmark::kMicrosecond);

void BM_SegmentStabbingQuery(benchmark::State& state) {
  const auto rects = datagen::StreetRects(50000, 7);
  rtree::RStarTree tree =
      std::move(rtree::StrBulkLoad(datagen::ToObstacleObjects(rects))).value();
  Rng rng(8);
  std::vector<geom::Segment> queries(256);
  for (auto& s : queries) {
    const geom::Vec2 a{rng.Uniform(0, 9000), rng.Uniform(0, 9000)};
    s = geom::Segment(a, {a.x + 450, a.y + 450});
  }
  size_t i = 0;
  std::vector<rtree::DataObject> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.SegmentIntersectionQuery(queries[i++ & 255], &out).ok());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SegmentStabbingQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace conn

BENCHMARK_MAIN();
