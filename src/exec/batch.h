// Batched multi-query execution of CONN / COkNN workloads.
//
// The paper's engine answers one query at a time; under the heavy
// multi-user traffic the system targets, that model rebuilds a local
// visibility graph per query and re-retrieves every obstacle that several
// nearby queries share.  BatchRunner amortizes that work the way the
// mesh-based successors amortize their precomputed structure: queries are
// sharded by spatial locality (exec/sharder.h), shards run on plain worker
// threads that claim them in order, and every shard's queries share one
// core::QueryWorkspace, so incremental obstacle retrieval accumulates
// across the shard instead of restarting per query.  The workspace also
// carries the shard's vis::ScanArena: every Dijkstra scan of every query
// in the shard runs on the same pooled epoch-stamped state, sized once
// for the shared graph (see vis/dijkstra.h).
//
// Shards the adaptive locality guard declines to share fall back to the
// paper's own model — every query on its own fresh local visibility graph
// — and are scheduled per query: each of their queries is a separate work
// item, so a dispersed batch spreads over every worker instead of
// running one shard's queries back to back on one worker.
//
// Correctness bar: results are identical to the single-query engine — the
// shared graph only ever holds a superset of each query's Theorem-2
// search-range obstacles (see core/workspace.h).  Per-query CPU/algorithm
// statistics stay per-query; per-query *I/O* counters are deltas on shared
// atomic pager counters and therefore only meaningful in aggregate when
// several shards run concurrently (BatchStats reports the batch-level
// deltas).

#ifndef CONN_EXEC_BATCH_H_
#define CONN_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "core/options.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace exec {

/// One query of a batch.
struct BatchQuery {
  enum class Kind { kConn, kCoknn };

  Kind kind = Kind::kCoknn;
  geom::Segment segment;
  size_t k = 1;  ///< COkNN only

  /// Last tick's result for this query's client (tick-loop callers only;
  /// must outlive the run).  Enables core::CoknnQuery's stationary-segment
  /// memo under ConnOptions::use_tick_warm_start.
  const core::CoknnResult* prior = nullptr;

  static BatchQuery Conn(const geom::Segment& q) {
    return BatchQuery{Kind::kConn, q, 1};
  }
  static BatchQuery Coknn(const geom::Segment& q, size_t k) {
    return BatchQuery{Kind::kCoknn, q, k};
  }
  static BatchQuery CoknnTick(const geom::Segment& q, size_t k,
                              const core::CoknnResult* prior) {
    return BatchQuery{Kind::kCoknn, q, k, prior};
  }
};

/// Execution knobs.
struct BatchOptions {
  /// Worker threads; 0 resolves to std::thread::hardware_concurrency().
  size_t num_threads = 0;

  /// Queries per spatial shard (the workspace-sharing granularity).
  size_t target_shard_size = 8;

  /// When false every query builds its own graph (degenerates to the
  /// single-query engine on a pool — the ablation baseline).
  bool share_workspace = true;

  /// Locality guard for adaptive sharing: a shard shares its workspace
  /// only when its cover rectangle is at most this factor times the
  /// largest query MBR extent in the shard (floored at a few typical
  /// obstacle spacings, so clustered point queries still share).  A
  /// dispersed shard (uniform traffic at low density) would union
  /// far-apart obstacle neighborhoods into one big graph and make every
  /// insertion and scan pay for it — such shards fall back to per-query
  /// graphs instead.  <= 0 disables the guard (always share).
  double share_locality_factor = 4.0;

  /// Per-query engine options.
  core::ConnOptions query;
};

/// Result slot for one input query (exactly one member is set, matching
/// the query's kind).
struct QueryOutcome {
  std::optional<core::ConnResult> conn;
  std::optional<core::CoknnResult> coknn;
};

/// Aggregate accounting for one Run().
struct BatchStats {
  size_t query_count = 0;
  size_t shard_count = 0;

  /// Workers that ran the batch: the configured thread count capped at
  /// the number of work items — one per sharing shard plus one per query
  /// of every shard the locality guard declined.
  size_t threads_used = 0;

  /// Obstacle insertions skipped because a shard sibling already retrieved
  /// the obstacle — the work saved by workspace sharing.
  uint64_t obstacle_reuse_hits = 0;

  /// Unique obstacles inserted across all shard workspaces (this run's
  /// growth only, for plans carrying workspaces across runs).
  uint64_t obstacles_inserted = 0;

  /// RunPlan only: shards that served this run on a workspace carried
  /// from a previous run (the tick loop's cross-tick warm path).
  size_t shards_carried = 0;

  /// Always 0.  Counted obstacles pre-seeded from a cross-shard obstacle
  /// store, which cost more than it saved and was removed; kept so the
  /// tools that report it keep their output format.
  uint64_t cross_shard_store_hits = 0;

  /// Always 0.  Counted workspaces a Reshard carried onto a rebuilt shard
  /// for differential tick repair, which cost more than it saved and was
  /// removed; kept because perfbench/conn_bench.cc:904 reads it.
  size_t workspaces_adopted = 0;

  /// Batch-level pager deltas (single-threaded snapshots around the run).
  uint64_t data_page_faults = 0;
  uint64_t obstacle_page_faults = 0;
  uint64_t buffer_hits = 0;

  /// Element-wise sum of every query's own QueryStats.
  QueryStats per_query_totals;

  double wall_seconds = 0.0;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0
               ? static_cast<double>(query_count) / wall_seconds
               : 0.0;
  }
};

/// Complete answer of a batch run; outcomes are in input order.
struct BatchResult {
  std::vector<QueryOutcome> outcomes;
  BatchStats stats;
};

/// Persistent sharding of a recurring batch — the tick loop's sticky
/// client→shard assignment.  A plan pins which query indices run
/// together and carries each shard's workspace (obstacle graph + scan
/// arena) from one RunPlan() to the next, so consecutive ticks of the
/// same and nearby clients reuse retrieval instead of rebuilding.
/// Create empty, then let BatchRunner::Reshard / RunPlan populate it; a
/// plan is bound to the query *positions* (index i of every run is the
/// same logical client), which the caller maintains.
class BatchPlan {
 public:
  BatchPlan();
  ~BatchPlan();
  BatchPlan(BatchPlan&&) noexcept;
  BatchPlan& operator=(BatchPlan&&) noexcept;
  BatchPlan(const BatchPlan&) = delete;
  BatchPlan& operator=(const BatchPlan&) = delete;

  /// Number of queries the current sharding was derived for (0 = empty).
  size_t query_count() const { return query_count_; }

  size_t shard_count() const { return states_.size(); }

 private:
  friend class BatchRunner;

  /// One sticky shard and its cross-run state.
  struct ShardState {
    std::vector<size_t> members;  ///< query indices, in shard order

    /// Carried workspace (null until the shard first shares, or after the
    /// locality guard declines).
    std::unique_ptr<core::QueryWorkspace> workspace;

    // Watermarks making cross-run accounting incremental: a carried
    // workspace's counters accumulate for its lifetime, but each run must
    // report only its own growth.
    uint64_t reuse_hits_mark = 0;  ///< DuplicateObstacleSkips at last run end
    uint64_t obstacles_mark = 0;   ///< ObstacleCount at last run end
  };

  std::vector<ShardState> states_;
  size_t query_count_ = 0;
};

/// Executes batches of CONN/COkNN queries against one tree configuration.
/// The trees must outlive the runner and must not be modified while a
/// batch runs.  Run() is const and reentrant; RunPlan() is reentrant for
/// distinct plans.
class BatchRunner {
 public:
  /// Runs every query through core::ConnQuery / core::CoknnQuery on these
  /// trees: pass the same unified tree twice for the 1-tree configuration
  /// (Section 4.5).  Batch I/O of a unified tree counts as data faults.
  BatchRunner(const rtree::RStarTree& data_tree,
              const rtree::RStarTree& obstacle_tree,
              const BatchOptions& opts = {});

  BatchResult Run(const std::vector<BatchQuery>& queries) const;

  /// Re-derives \p plan's sticky sharding from the queries' current
  /// segments.  Carried workspaces are dropped, so the rebuilt shards
  /// retrieve from the tree.  Tick-loop callers invoke this when batch
  /// membership changes and periodically as routes drift away from the
  /// assignment they were sharded under.
  void Reshard(const std::vector<BatchQuery>& queries, BatchPlan* plan) const;

  /// Runs \p queries under \p plan's sticky sharding, carrying per-shard
  /// workspaces across calls (gated by ConnOptions::use_tick_warm_start;
  /// when off every shard rebuilds, reproducing Run()'s fresh semantics).
  /// An empty or size-mismatched plan is reshard()ed first.  A shard the
  /// locality guard declines retires its carried workspace, and its
  /// queries run as independent fresh queries.  Results are bit-identical
  /// to Run() on the same queries.
  BatchResult RunPlan(const std::vector<BatchQuery>& queries,
                      BatchPlan* plan) const;

  const BatchOptions& options() const { return opts_; }

 private:
  const rtree::RStarTree* data_;
  const rtree::RStarTree* obstacles_;  // == data_ in 1-tree mode
  BatchOptions opts_;
};

}  // namespace exec
}  // namespace conn

#endif  // CONN_EXEC_BATCH_H_
