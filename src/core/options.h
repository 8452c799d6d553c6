// Options controlling CONN / COkNN query processing.  The lemma toggles
// exist for the pruning ablation study (bench/ablation_pruning); production
// callers keep the defaults (everything on).

#ifndef CONN_CORE_OPTIONS_H_
#define CONN_CORE_OPTIONS_H_

namespace conn {
namespace core {

/// Knobs for the CONN family of queries.
struct ConnOptions {
  /// Lemma 1 endpoint-dominance fast path inside RLU / CPLC updates.
  bool use_lemma1_prune = true;

  /// Lemma 6 triangle refinement of candidate control-point regions.
  bool use_lemma6_refine = true;

  /// Lemma 7 CPLMAX termination of the CPLC Dijkstra traversal.
  bool use_lemma7_terminate = true;

  /// Lemma 2 RLMAX termination of the main data-point loop.  Disabling
  /// forces evaluation of every data point (for the ablation only).
  bool use_rlmax_terminate = true;

  /// Has no effect.  It selected warm IOR scan restarts, which saved
  /// nothing once admission was ellipse-bounded and were removed: every
  /// Lemma-3 wave starts a new scan.  Kept because
  /// perfbench/conn_bench.cc:633 (RunUlSingle) still sets it.
  bool use_warm_scan_restarts = true;

  /// Cross-tick warm starts for moving-query subscriptions: successive
  /// ticks of one client reuse the prior tick's workspace (obstacle graph
  /// + scan arena) and short-circuit ticks whose query segment did not
  /// move (CoknnQuery's prior-result memo).  Results are bit-identical
  /// either way — reused graphs only ever hold a *superset* of the query's
  /// Theorem-2 obstacle set, the same exactness argument as batch
  /// workspace sharing; disabling selects the fresh evaluate-every-tick
  /// reference path the subscription equivalence suite compares against.
  bool use_tick_warm_start = true;

  /// Has no effect.  It selected differential tick repair, which cost more
  /// than it saved and was removed; kept because perfbench/conn_bench.cc:790
  /// (StartEpisode) still sets it.
  bool use_differential_repair = false;
};

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_OPTIONS_H_
