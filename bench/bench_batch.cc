// Batched multi-query execution vs the sequential single-query loop.
//
// The workload models the system's target traffic: a fleet of simultaneous
// route queries clustered around a handful of hubs (users cluster in city
// cores), at the bench harness's scaled cardinalities.  Three variants:
//
//   BM_CoknnSequential      — the paper's model: one query at a time, each
//                             rebuilding its visibility graph from scratch.
//   BM_CoknnBatched         — BatchRunner: STR locality shards, one shared
//                             obstacle workspace per shard, worker threads.
//   BM_CoknnBatchedNoShare  — BatchRunner with sharing disabled: isolates
//                             the worker threads' contribution from the
//                             workspace-reuse contribution.
//
// Counters: qps (queries/sec), reuse_hits (obstacle insertions skipped via
// sharing), reuse_frac (fraction of obstacle retrievals served by the
// shared workspace).  A uniform (non-clustered) workload variant reports
// how the win degrades when locality is poor.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/batch.h"

namespace conn {
namespace bench {
namespace {

size_t FleetSize() { return std::max<size_t>(32, BenchQueries() * 8); }

/// Hub-clustered fleet workload: queries start near one of a few depots.
std::vector<exec::BatchQuery> FleetWorkload(size_t n, size_t k,
                                            uint64_t seed) {
  Rng rng(seed);
  const geom::Rect ws = datagen::Workspace();
  const size_t hubs = std::max<size_t>(1, n / 16);
  std::vector<geom::Vec2> depots;
  for (size_t h = 0; h < hubs; ++h) {
    depots.push_back({rng.Uniform(ws.lo.x + 500, ws.hi.x - 500),
                      rng.Uniform(ws.lo.y + 500, ws.hi.y - 500)});
  }
  const double length = datagen::QueryLengthFromPercent(4.5);
  std::vector<exec::BatchQuery> batch;
  for (size_t i = 0; i < n; ++i) {
    const geom::Vec2& depot = depots[i % hubs];
    const geom::Vec2 start{depot.x + rng.Uniform(-300.0, 300.0),
                           depot.y + rng.Uniform(-300.0, 300.0)};
    const double theta = rng.Uniform(0.0, 6.283185307179586);
    geom::Vec2 end{start.x + length * std::cos(theta),
                   start.y + length * std::sin(theta)};
    end.x = std::clamp(end.x, ws.lo.x, ws.hi.x);
    end.y = std::clamp(end.y, ws.lo.y, ws.hi.y);
    batch.push_back(exec::BatchQuery::Coknn(geom::Segment(start, end), k));
  }
  return batch;
}

/// Uniform workload (no locality): the sharder's worst case.
std::vector<exec::BatchQuery> UniformWorkload(size_t n, size_t k,
                                              uint64_t seed) {
  datagen::WorkloadOptions wopts;
  wopts.query_length = datagen::QueryLengthFromPercent(4.5);
  std::vector<exec::BatchQuery> batch;
  for (const geom::Segment& q :
       datagen::MakeWorkload(n, datagen::Workspace(), wopts, {}, seed)) {
    batch.push_back(exec::BatchQuery::Coknn(q, k));
  }
  return batch;
}

void ReportBatch(benchmark::State& state, const exec::BatchStats& stats,
                 size_t queries, double elapsed_total) {
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(queries) * state.iterations() / elapsed_total);
  state.counters["reuse_hits"] = static_cast<double>(stats.obstacle_reuse_hits);
  const double retrievals = static_cast<double>(stats.obstacle_reuse_hits +
                                                stats.obstacles_inserted);
  state.counters["reuse_frac"] =
      retrievals > 0 ? stats.obstacle_reuse_hits / retrievals : 0.0;
  state.counters["shards"] = static_cast<double>(stats.shard_count);
  state.counters["vis_tests"] =
      static_cast<double>(stats.per_query_totals.visibility_tests);
  state.counters["seed_tests"] =
      static_cast<double>(stats.per_query_totals.seed_tests);
  state.counters["settled"] =
      static_cast<double>(stats.per_query_totals.dijkstra_settled);
  state.counters["NOE"] =
      static_cast<double>(stats.per_query_totals.obstacles_evaluated);
}

void RunBatchedBench(benchmark::State& state,
                     const std::vector<exec::BatchQuery>& batch,
                     bool share_workspace) {
  const Dataset& ds = GetDataset(datagen::PointDistribution::kUniform,
                                 ScaledCa(), ScaledLa());
  exec::BatchOptions opts;
  opts.target_shard_size = 16;
  opts.share_workspace = share_workspace;
  const exec::BatchRunner runner(*ds.tp, *ds.to, opts);

  exec::BatchStats last;
  double elapsed = 0.0;
  for (auto _ : state) {
    const exec::BatchResult result = runner.Run(batch);
    benchmark::DoNotOptimize(result.outcomes.data());
    last = result.stats;
    elapsed += result.stats.wall_seconds;
  }
  ReportBatch(state, last, batch.size(), elapsed);
}

void RunSequentialBench(benchmark::State& state,
                        const std::vector<exec::BatchQuery>& batch) {
  const Dataset& ds = GetDataset(datagen::PointDistribution::kUniform,
                                 ScaledCa(), ScaledLa());
  QueryStats totals;
  Timer timer;
  for (auto _ : state) {
    // Per-iteration totals, mirroring the batched variants' last-iteration
    // stats — the cross-variant work-counter comparison must not scale
    // with however many iterations the harness chooses.
    totals = QueryStats{};
    for (const exec::BatchQuery& q : batch) {
      const core::CoknnResult r = core::CoknnQuery(*ds.tp, *ds.to, q.segment,
                                                   q.k);
      benchmark::DoNotOptimize(r.tuples.data());
      totals += r.stats;
    }
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(batch.size()) * state.iterations() /
      timer.ElapsedSeconds());
  state.counters["vis_tests"] = static_cast<double>(totals.visibility_tests);
  state.counters["seed_tests"] = static_cast<double>(totals.seed_tests);
  state.counters["settled"] = static_cast<double>(totals.dijkstra_settled);
  state.counters["NOE"] = static_cast<double>(totals.obstacles_evaluated);
}

void BM_CoknnSequential(benchmark::State& state) {
  RunSequentialBench(state, FleetWorkload(FleetSize(), 5, 42));
}
BENCHMARK(BM_CoknnSequential)->Unit(benchmark::kMillisecond);

void BM_CoknnBatched(benchmark::State& state) {
  RunBatchedBench(state, FleetWorkload(FleetSize(), 5, 42),
                  /*share_workspace=*/true);
}
BENCHMARK(BM_CoknnBatched)->Unit(benchmark::kMillisecond);

void BM_CoknnBatchedNoShare(benchmark::State& state) {
  RunBatchedBench(state, FleetWorkload(FleetSize(), 5, 42),
                  /*share_workspace=*/false);
}
BENCHMARK(BM_CoknnBatchedNoShare)->Unit(benchmark::kMillisecond);

void BM_CoknnBatchedUniformWorkload(benchmark::State& state) {
  RunBatchedBench(state, UniformWorkload(FleetSize(), 5, 42),
                  /*share_workspace=*/true);
}
BENCHMARK(BM_CoknnBatchedUniformWorkload)->Unit(benchmark::kMillisecond);

void BM_CoknnSequentialUniformWorkload(benchmark::State& state) {
  RunSequentialBench(state, UniformWorkload(FleetSize(), 5, 42));
}
BENCHMARK(BM_CoknnSequentialUniformWorkload)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
