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

  /// Warm IOR restarts: an obstacle wave revalidates and extends the
  /// previous Dijkstra scan (rolling back only the settlement suffix the
  /// new obstacles can reach) instead of recomputing it from scratch.
  /// Results are bit-identical either way; disabling selects the
  /// paper-literal fresh-scan-per-Lemma-3-iteration reference path that
  /// the scan-arena equivalence suite compares against.
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

  /// Differential tick repair on top of the cross-tick warm path: carried
  /// workspaces keep a per-shard settlement log of coverage capsules — one
  /// entry per completed retrieval asserting "every obstacle within radius
  /// r of segment s is already in this graph" — and survive reshards by
  /// cover overlap.  Their visibility graphs keep eager adjacency, like
  /// every other graph (see core::QueryWorkspace for the measurement).  A
  /// later query (the same client's next tick, or a clustered sibling's)
  /// whose Theorem-2 search range a capsule covers skips the obstacle
  /// stream entirely; only boundary points whose range escapes coverage
  /// re-score against the tree.  Results are bit-identical either way:
  /// scans depend only on the graph's edge *sets* at use time (the heap
  /// tie-breaks on (dist, vertex)), and a covered wave has the same
  /// postcondition as streaming duplicates.  Requires
  /// use_tick_warm_start; off selects the PR 8 warm path unchanged.
  bool use_differential_repair = false;
};

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_OPTIONS_H_
