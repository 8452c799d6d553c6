#include "exec/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/workspace.h"
#include "exec/sharder.h"
#include "geom/box.h"

namespace conn {
namespace exec {

namespace {

/// Typical spacing between neighboring obstacles in \p tree — the natural
/// length scale of a query's obstacle neighborhood.  Zero/short queries
/// (point lookups) have no extent of their own, so the locality guard
/// measures their spread in units of this instead.  For the
/// unified tree (1-tree mode) size() also counts data points, so the value
/// underestimates the true spacing — the guard then errs toward *not*
/// sharing, which is the safe direction; callers needing another threshold
/// scale it with BatchOptions::share_locality_factor.
double ObstacleSpacing(const rtree::RStarTree& tree) {
  if (tree.size() == 0) return 0.0;
  const geom::Rect b = tree.Bounds();
  return std::max(b.Width(), b.Height()) /
         std::sqrt(static_cast<double>(tree.size()));
}

/// The adaptive-sharing locality guard (see BatchOptions).  \p extent_floor
/// keeps the guard meaningful for (near-)degenerate query segments.
bool ShardIsLocal(const std::vector<BatchQuery>& queries,
                  const std::vector<size_t>& shard, const geom::Rect& cover,
                  double factor, double extent_floor) {
  if (factor <= 0.0) return true;
  double max_extent = extent_floor;
  for (size_t idx : shard) {
    const geom::Rect b = queries[idx].segment.Bounds();
    max_extent = std::max({max_extent, b.Width(), b.Height()});
  }
  return std::max(cover.Width(), cover.Height()) <= factor * max_extent;
}

/// The stats of whichever engine answered \p out.
QueryStats& OutcomeStats(QueryOutcome& out) {
  return out.conn.has_value() ? out.conn->stats : out.coknn->stats;
}

/// Extent floor: a few obstacle spacings — queries that close together
/// overlap in the obstacles they retrieve even when the segments
/// themselves are points.
constexpr double kSpacingFloorFactor = 8.0;

}  // namespace

BatchPlan::BatchPlan() = default;
BatchPlan::~BatchPlan() = default;
BatchPlan::BatchPlan(BatchPlan&&) noexcept = default;
BatchPlan& BatchPlan::operator=(BatchPlan&&) noexcept = default;

BatchRunner::BatchRunner(const rtree::RStarTree& data_tree,
                         const rtree::RStarTree& obstacle_tree,
                         const BatchOptions& opts)
    : data_(&data_tree), obstacles_(&obstacle_tree), opts_(opts) {}

BatchResult BatchRunner::Run(const std::vector<BatchQuery>& queries) const {
  // A throwaway plan: every shard starts fresh, exactly the original
  // one-shot batch semantics.
  BatchPlan plan;
  return RunPlan(queries, &plan);
}

void BatchRunner::Reshard(const std::vector<BatchQuery>& queries,
                          BatchPlan* plan) const {
  std::vector<BatchPlan::ShardState> old_states = std::move(plan->states_);
  plan->states_.clear();
  plan->query_count_ = queries.size();

  std::vector<geom::Segment> segments;
  segments.reserve(queries.size());
  for (const BatchQuery& q : queries) segments.push_back(q.segment);
  for (std::vector<size_t>& shard :
       ShardByLocality(segments, opts_.target_shard_size)) {
    BatchPlan::ShardState state;
    state.members = std::move(shard);
    plan->states_.push_back(std::move(state));
  }

  // Differential repair carries workspaces *through* the reshard: each
  // rebuilt shard adopts the not-yet-taken old workspace whose last served
  // cover overlaps its new cover the most (greedy in shard order, lowest
  // old index on ties, no adoption without overlap).  Any match quality is
  // exact — the adopted graph is a superset of whatever the new members
  // need retrieved, and RunPlan's Covers() check still rebuilds when the
  // new cover escapes the adopted domain.  Without the repair gate old
  // workspaces are dropped and rebuilt shards retrieve from the tree.
  if (opts_.query.use_tick_warm_start && opts_.query.use_differential_repair) {
    for (BatchPlan::ShardState& state : plan->states_) {
      const geom::Rect cover = ShardCover(segments, state.members);
      size_t best = old_states.size();
      double best_overlap = 0.0;
      for (size_t i = 0; i < old_states.size(); ++i) {
        if (old_states[i].workspace == nullptr) continue;
        const double overlap = cover.OverlapArea(old_states[i].last_cover);
        if (overlap > best_overlap) {
          best_overlap = overlap;
          best = i;
        }
      }
      if (best == old_states.size()) continue;
      state.workspace = std::move(old_states[best].workspace);
      state.last_cover = old_states[best].last_cover;
      state.reuse_hits_mark = old_states[best].reuse_hits_mark;
      state.obstacles_mark = old_states[best].obstacles_mark;
      ++plan->adopted_pending_;
    }
  }
}

BatchResult BatchRunner::RunPlan(const std::vector<BatchQuery>& queries,
                                 BatchPlan* plan) const {
  Timer timer;
  BatchResult result;
  result.outcomes.resize(queries.size());
  result.stats.query_count = queries.size();
  if (queries.empty()) return result;
  if (plan->query_count_ != queries.size() || plan->states_.empty()) {
    Reshard(queries, plan);
  }
  result.stats.shard_count = plan->states_.size();
  result.stats.workspaces_adopted = plan->adopted_pending_;
  plan->adopted_pending_ = 0;

  std::vector<geom::Segment> segments;
  segments.reserve(queries.size());
  for (const BatchQuery& q : queries) segments.push_back(q.segment);

  // The obstacle tree when it is a separate one; in the 1-tree
  // configuration its I/O is the data tree's, charged once, as the
  // engines do.
  const rtree::RStarTree* own_obstacles =
      obstacles_ != data_ ? obstacles_ : nullptr;
  const uint64_t data_faults0 = data_->pager().faults();
  const uint64_t data_hits0 = data_->pager().hits();
  const uint64_t obs_faults0 =
      own_obstacles != nullptr ? own_obstacles->pager().faults() : 0;
  const uint64_t obs_hits0 =
      own_obstacles != nullptr ? own_obstacles->pager().hits() : 0;

  const double extent_floor =
      kSpacingFloorFactor * ObstacleSpacing(*obstacles_);
  const bool warm_gate = opts_.query.use_tick_warm_start;

  // The locality guard runs up front, on this thread, and decides the
  // work items: a sharing shard is one item (its queries run in order on
  // the shard workspace); a declined shard contributes one item per
  // query, each a plain fresh query on the engine's own graph, so its
  // queries spread over every idle worker instead of serializing.  Items
  // keep shard order, so a single worker runs queries in the same order
  // either way.
  struct WorkItem {
    size_t shard;
    size_t query;  ///< kWholeShard for a sharing shard's item
  };
  constexpr size_t kWholeShard = static_cast<size_t>(-1);
  std::vector<WorkItem> items;
  std::vector<geom::Rect> covers(plan->states_.size(), geom::Rect::Empty());
  for (size_t s = 0; s < plan->states_.size(); ++s) {
    BatchPlan::ShardState& state = plan->states_[s];
    bool share = false;
    if (opts_.share_workspace) {
      covers[s] = ShardCover(segments, state.members);
      share = ShardIsLocal(queries, state.members, covers[s],
                           opts_.share_locality_factor, extent_floor);
    }
    if (share) {
      items.push_back({s, kWholeShard});
      continue;
    }
    // The guard stopped sharing (the shard's queries drifted apart):
    // retire the carried workspace.
    state.workspace.reset();
    state.reuse_hits_mark = 0;
    state.obstacles_mark = 0;
    for (size_t idx : state.members) items.push_back({s, idx});
  }

  size_t threads = opts_.num_threads != 0
                       ? opts_.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, items.size());
  result.stats.threads_used = threads;

  // Runs query \p idx on \p ws (null: the engine's own fresh graph) into
  // its outcome slot, marked as warm when \p ws was carried across runs.
  auto run_query = [&](size_t idx, core::QueryWorkspace* ws, bool carried) {
    const BatchQuery& q = queries[idx];
    QueryOutcome& out = result.outcomes[idx];
    if (q.kind == BatchQuery::Kind::kConn) {
      out.conn =
          core::ConnQuery(*data_, *obstacles_, q.segment, opts_.query, ws);
    } else {
      out.coknn = core::CoknnQuery(*data_, *obstacles_, q.segment, q.k,
                                   opts_.query, ws, {q.prior, q.client_tag});
    }
    if (carried) {
      // The query ran on cross-run state: mark it (unless the
      // stationary-segment memo already did) and credit its Dijkstra
      // scans to the carried arena.
      QueryStats& stats = OutcomeStats(out);
      if (stats.tick_warm_starts == 0) stats.tick_warm_starts = 1;
      stats.tick_frontier_reuse += stats.dijkstra_runs;
    }
  };

  // An item writes only its queries' outcome slots, its own shard state
  // and its shard's carried flag, so the items need no lock between them.
  std::vector<uint8_t> carried(plan->states_.size(), 0);
  auto run_item = [&](const WorkItem& item) {
    if (item.query != kWholeShard) {
      run_query(item.query, nullptr, false);
      return;
    }
    BatchPlan::ShardState& state = plan->states_[item.shard];
    const geom::Rect& cover = covers[item.shard];
    if (warm_gate && state.workspace != nullptr &&
        state.workspace->Covers(cover)) {
      // Cross-run warm path: the carried workspace's domain still covers
      // the (moved) queries, so its graph — a superset of every member's
      // Theorem-2 obstacle set — and its scan arena serve this run as-is.
      carried[item.shard] = 1;
    } else {
      state.workspace =
          std::make_unique<core::QueryWorkspace>(data_, obstacles_, cover);
      state.reuse_hits_mark = 0;
      state.obstacles_mark = 0;
    }
    state.last_cover = cover;
    for (size_t idx : state.members) {
      run_query(idx, state.workspace.get(), carried[item.shard] != 0);
    }
  };

  // Workers claim items in order from a shared cursor, so a single worker
  // runs them in exactly the order they were planned.  The calling thread
  // is the last worker.  A worker that throws drains the cursor, so the
  // others stop claiming; the first failure is rethrown after the join.
  std::atomic<size_t> next_item{0};
  std::vector<std::exception_ptr> failures(threads);
  auto worker = [&](size_t w) {
    try {
      for (size_t i = next_item++; i < items.size(); i = next_item++) {
        run_item(items[i]);
      }
    } catch (...) {
      failures[w] = std::current_exception();
      next_item = items.size();
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined when this block ends
    helpers.reserve(threads - 1);
    for (size_t w = 1; w < threads; ++w) helpers.emplace_back(worker, w);
    worker(0);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }

  // Fold the run's accounting on this thread, in shard order and then
  // query order.  A shard without a workspace was declined by the guard.
  for (size_t s = 0; s < plan->states_.size(); ++s) {
    BatchPlan::ShardState& state = plan->states_[s];
    for (size_t idx : state.members) {
      result.stats.per_query_totals += OutcomeStats(result.outcomes[idx]);
    }
    if (state.workspace == nullptr) continue;
    result.stats.shards_carried += carried[s];
    result.stats.obstacle_reuse_hits +=
        state.workspace->ObstacleReuseHits() - state.reuse_hits_mark;
    result.stats.obstacles_inserted +=
        state.workspace->ObstacleCount() - state.obstacles_mark;
    state.reuse_hits_mark = state.workspace->ObstacleReuseHits();
    state.obstacles_mark = state.workspace->ObstacleCount();
  }

  result.stats.data_page_faults = data_->pager().faults() - data_faults0;
  result.stats.buffer_hits = data_->pager().hits() - data_hits0;
  if (own_obstacles != nullptr) {
    result.stats.obstacle_page_faults =
        own_obstacles->pager().faults() - obs_faults0;
    result.stats.buffer_hits += own_obstacles->pager().hits() - obs_hits0;
  }
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace exec
}  // namespace conn
