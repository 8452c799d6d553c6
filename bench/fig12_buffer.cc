// Figure 12 — "Performance vs. bs (% of the tree size)".
//
// Paper setup: CL and UL combinations, k = 5, ql = 4.5%, buffer sized at
// {1, 2, 4, 8, 16, 32}% of each R-tree's page count; the first half of the
// workload warms the buffer and only the second half is measured (the
// pager counters are reset between the halves, and every reported metric
// is averaged over the measured half only).
//
// Expected shape: I/O cost (page faults) falls as the buffer grows while
// CPU time, NPE, NOE, and |SVG| stay flat — "non-zero buffer can only
// improve I/O performance, but not others".
//
// The eviction policy comes from $CONN_BUFFER_POLICY: the default "2q"
// (scan-resistant) or "exact-lru", which reproduces the seed LRU buffer's
// fault counts bit-for-bit.  The JSON carries both "faults" and "hits" per
// configuration, so the whole I/O curve is machine-readable.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace conn {
namespace bench {
namespace {

void RunBuffer(benchmark::State& state, datagen::PointDistribution dist,
               size_t num_points, const char* name) {
  const double bs = static_cast<double>(state.range(0));
  const Dataset& ds = GetDataset(dist, num_points, ScaledLa());
  QueryStats avg;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.ql_percent = 4.5;
    cfg.k = 5;
    cfg.buffer_percent = bs;
    cfg.buffer_policy = BenchBufferPolicy();
    cfg.warmup_queries = BenchQueries();  // paper: 50 warm-up of 100
    avg = RunCoknnWorkload(ds, cfg);
  }
  ReportStats(state, avg, ds.pair.obstacles.size());
  state.counters["hits"] = static_cast<double>(avg.buffer_hits);
  state.SetLabel(std::string(name) + ", k=5, ql=4.5%, bs=" +
                 std::to_string(static_cast<int>(bs)) + "%, policy=" +
                 PolicyName(BenchBufferPolicy()));
}

void BM_Fig12_CL(benchmark::State& state) {
  RunBuffer(state, datagen::PointDistribution::kClustered, ScaledCa(), "CL");
}

void BM_Fig12_UL(benchmark::State& state) {
  RunBuffer(state, datagen::PointDistribution::kUniform, ScaledLa() / 2, "UL");
}

BENCHMARK(BM_Fig12_CL)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Fig12_UL)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
