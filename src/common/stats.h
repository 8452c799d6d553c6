// Per-query performance counters matching the metrics of Section 5.1 of the
// paper: I/O cost (pages), CPU time, query cost (CPU + 10 ms per page
// fault), visibility graph size |SVG|, number of points evaluated (NPE), and
// number of obstacles evaluated (NOE).

#ifndef CONN_COMMON_STATS_H_
#define CONN_COMMON_STATS_H_

#include <cstdint>
#include <string>

namespace conn {

/// Cost charged per page fault by the paper's query cost model (Section 5.1:
/// "the I/O time is computed by charging 10ms for each page fault").
inline constexpr double kIoCostPerPageSeconds = 0.010;

/// Counters accumulated by a single CONN / COkNN / ONN query execution.
struct QueryStats {
  // --- I/O ---
  uint64_t data_page_reads = 0;      ///< page faults on the data R-tree Tp
  uint64_t obstacle_page_reads = 0;  ///< page faults on the obstacle R-tree To
  uint64_t buffer_hits = 0;          ///< LRU buffer hits (no fault charged)

  // --- readahead staging (BufferOptions::readahead_pages) ---
  uint64_t prefetch_issued = 0;  ///< pages staged by readahead
  uint64_t prefetch_hits = 0;    ///< demand touches served by a staged page
  uint64_t prefetch_wasted = 0;  ///< staged pages evicted before any demand

  // --- algorithmic work (paper metrics) ---
  uint64_t points_evaluated = 0;     ///< NPE: data points fully processed
  uint64_t obstacles_evaluated = 0;  ///< NOE: obstacles added to the local VG
  uint64_t vis_graph_vertices = 0;   ///< |SVG|: vertices in the local VG

  // --- finer-grained instrumentation ---
  uint64_t dijkstra_runs = 0;        ///< shortest-path invocations
  uint64_t dijkstra_settled = 0;     ///< total vertices settled across runs
  uint64_t visibility_tests = 0;     ///< segment-vs-obstacle interior tests
  uint64_t seed_tests = 0;           ///< source->vertex seed sight-line tests
  /// Always 0.  Counted IOR waves absorbed by warm scan restarts, which
  /// were removed; kept because perfbench/conn_bench.cc:557
  /// (AddCounterMetrics) reads it and perfbench/replay.cc:326 compares it.
  uint64_t scan_warm_restarts = 0;

  // --- tick-loop (subscription service) reuse ---
  /// Queries served via cross-tick state (carried workspace or memo).
  uint64_t tick_warm_starts = 0;
  /// Dijkstra scans run on a tick-carried (warm) arena.
  uint64_t tick_frontier_reuse = 0;
  /// Always 0.  Counted obstacles pre-seeded from a cross-shard obstacle
  /// store, which cost more than it saved and was removed; kept so the
  /// tools that report it keep their output format.
  uint64_t cross_shard_store_hits = 0;

  // All four always 0.  They counted the work of differential tick repair,
  // which cost more than it saved and was removed; kept because
  // perfbench/conn_bench.cc:565-570 (AddCounterMetrics) reads them and
  // perfbench/replay.cc:330-333 compares them.
  uint64_t repairs_applied = 0;
  uint64_t tuples_carried = 0;
  uint64_t tuples_rescored = 0;
  uint64_t frontier_shares = 0;

  uint64_t vr_cache_evictions = 0;   ///< visible regions dropped on epoch bump
  uint64_t split_evaluations = 0;    ///< distance-curve crossing computations
  uint64_t lemma1_prunes = 0;        ///< RLU endpoint-dominance fast paths
  uint64_t lemma7_terminations = 0;  ///< CPLC early exits via CPLMAX
  uint64_t lemma2_terminations = 0;  ///< CONN early exits via RLMAX

  double cpu_seconds = 0.0;          ///< measured wall time of the query body

  /// Total page faults across both (or the unified) tree(s).
  uint64_t TotalPageReads() const {
    return data_page_reads + obstacle_page_reads;
  }

  /// I/O time under the 10 ms / fault cost model.
  double IoSeconds() const {
    return static_cast<double>(TotalPageReads()) * kIoCostPerPageSeconds;
  }

  /// Query cost = CPU time + modeled I/O time (the paper's "total time").
  double QueryCostSeconds() const { return cpu_seconds + IoSeconds(); }

  /// Element-wise accumulation (for averaging across a workload).
  QueryStats& operator+=(const QueryStats& other);

  /// Element-wise division by a positive query count.
  QueryStats AveragedOver(uint64_t queries) const;

  /// Multi-line human-readable dump used by examples and failure messages.
  std::string ToString() const;
};

}  // namespace conn

#endif  // CONN_COMMON_STATS_H_
