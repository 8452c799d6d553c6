// Ablation study: contribution of each pruning rule to COkNN (k = 5)
// performance.  CONN runs the same main loop and the same rules.
//
// Not a figure of the paper, but a direct validation of its design claims:
//   * Lemma 1  — endpoint-dominance fast path in RLU/CPLC updates;
//   * Lemma 6  — triangle refinement of candidate control-point regions;
//   * Lemma 7  — CPLMAX termination of the CPLC Dijkstra scan;
//   * Lemma 2  — RLMAX termination of the data-point loop.
//
// Expected shape: disabling Lemma 2 blows up NPE (every data point gets
// evaluated); disabling Lemma 7 blows up Dijkstra settles; disabling
// Lemmas 1/6 increases split evaluations / CPU.  Answers never change
// (asserted by the test suite, measured here).

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace conn {
namespace bench {
namespace {

enum Variant : int64_t {
  kAllOn = 0,
  kNoLemma1 = 1,
  kNoLemma6 = 2,
  kNoLemma7 = 3,
  kNoLemma2 = 4,
  kAllOff = 5,
};

const char* VariantName(int64_t v) {
  switch (v) {
    case kAllOn: return "all pruning ON";
    case kNoLemma1: return "Lemma 1 OFF (no endpoint-dominance)";
    case kNoLemma6: return "Lemma 6 OFF (no triangle refinement)";
    case kNoLemma7: return "Lemma 7 OFF (no CPLMAX termination)";
    case kNoLemma2: return "Lemma 2 OFF (no RLMAX termination)";
    case kAllOff: return "ALL pruning OFF";
  }
  return "?";
}

void BM_Ablation_Pruning(benchmark::State& state) {
  // Quarter cardinality: the no-Lemma-2 / all-off variants evaluate every
  // data point by design, so the ablation runs on a smaller instance (the
  // comparison is relative; the pruning ratios are what matters).
  const Dataset& ds = GetDataset(datagen::PointDistribution::kClustered,
                                 std::max<size_t>(200, ScaledCa() / 4),
                                 std::max<size_t>(400, ScaledLa() / 4));
  core::ConnOptions opts;
  switch (state.range(0)) {
    case kNoLemma1: opts.use_lemma1_prune = false; break;
    case kNoLemma6: opts.use_lemma6_refine = false; break;
    case kNoLemma7: opts.use_lemma7_terminate = false; break;
    case kNoLemma2: opts.use_rlmax_terminate = false; break;
    case kAllOff:
      opts.use_lemma1_prune = false;
      opts.use_lemma6_refine = false;
      opts.use_lemma7_terminate = false;
      opts.use_rlmax_terminate = false;
      break;
    default: break;
  }
  QueryStats avg;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.ql_percent = 4.5;
    cfg.k = 5;
    cfg.options = opts;
    avg = RunCoknnWorkload(ds, cfg);
  }
  ReportStats(state, avg, ds.pair.obstacles.size());
  state.counters["settled"] = static_cast<double>(avg.dijkstra_settled);
  state.counters["splits"] = static_cast<double>(avg.split_evaluations);
  state.counters["l1_hits"] = static_cast<double>(avg.lemma1_prunes);
  state.SetLabel(VariantName(state.range(0)));
}

BENCHMARK(BM_Ablation_Pruning)
    ->Arg(kAllOn)
    ->Arg(kNoLemma1)
    ->Arg(kNoLemma6)
    ->Arg(kNoLemma7)
    ->Arg(kNoLemma2)
    ->Arg(kAllOff)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
