// Moving-query subscription service: an incremental tick loop over the
// batch executor.
//
// Clients register a route — a polyline walked at constant speed — and the
// service re-evaluates every client's COkNN once per Tick(), each tick
// covering the next arc slice of the route (the paper's continuous query,
// driven continuously).  Evaluating every tick from scratch would discard
// exactly the state consecutive ticks share: a client's tick-t segment
// abuts its tick-(t-1) segment, so their Theorem-2 obstacle neighborhoods
// overlap almost entirely, and nearby clients overlap each other's.  The
// service therefore runs ticks through a sticky BatchPlan whose per-shard
// workspaces (obstacle graph + epoch-stamped scan arena) persist across
// ticks, and threads each client's previous answer back in as the
// stationary-segment memo.  Both are gated by
// ConnOptions::use_tick_warm_start; results are bit-identical to
// independently evaluating each tick (the superset argument of
// core/workspace.h, proven by the subscription equivalence suite).
// Clients the locality guard declines to share run as plain fresh
// queries, one work item each, across every worker thread (see
// exec/batch.h).
//
// Failure isolation: a client whose tick fails (see
// SubscriptionOptions::failure_injector) is quarantined — reported once
// with its error, excluded from subsequent ticks, its carried result
// dropped — without perturbing sibling results, which stay bit-identical
// to a run in which the failure never happened.

#ifndef CONN_EXEC_SUBSCRIPTION_H_
#define CONN_EXEC_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/coknn.h"
#include "exec/batch.h"
#include "geom/segment.h"
#include "geom/vec.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace exec {

/// A client's route: a polyline walked at constant speed, one arc step per
/// tick.  A client subscribed at tick s covers arc [n·speed, (n+1)·speed]
/// of the polyline on tick s+n, clamped at the route's end — a client that
/// completed its route keeps re-asking from its final position, which the
/// stationary-segment memo answers without re-evaluation.
struct RouteSpec {
  std::vector<geom::Vec2> waypoints;  ///< >= 1 points; 1 = stationary client
  double speed = 1.0;                 ///< arc length advanced per tick, > 0
};

/// Tick-loop knobs on top of the underlying batch execution.
struct SubscriptionOptions {
  BatchOptions batch;

  /// Ticks between sticky-assignment refreshes.  The client→shard
  /// assignment (and with it the carried per-shard workspaces) persists
  /// between refreshes; routes drift apart over time, degrading the
  /// locality the assignment was derived for, so it is periodically
  /// re-derived from current positions.  Under differential repair the
  /// rebuilt shards adopt the best-overlapping old workspaces; otherwise
  /// they start empty.  0 disables periodic resharding (membership
  /// changes still reshard).
  uint64_t reshard_period = 8;

  /// Test seam: invoked for every live client on every tick before its
  /// query runs; a non-OK status quarantines the client exactly like an
  /// internal failure.  Null = never fails.
  std::function<Status(int64_t client_id, uint64_t tick)> failure_injector;
};

/// One live client's answer for one tick.
struct ClientUpdate {
  int64_t client = -1;
  geom::Segment segment;  ///< the arc slice evaluated this tick
  Status status;          ///< non-OK: the client was quarantined this tick
  std::optional<core::CoknnResult> result;  ///< set iff status.ok()
};

/// Aggregate answer of one Tick().
struct TickResult {
  uint64_t tick = 0;                  ///< 0-based index of this tick
  std::vector<ClientUpdate> updates;  ///< ascending client id; covers every
                                      ///< client live when the tick began
  BatchStats stats;                   ///< underlying batch accounting
  size_t quarantined_now = 0;         ///< clients quarantined by this tick
};

/// The service.  Not thread-safe: one driver thread calls Subscribe /
/// Unsubscribe / Tick (Tick itself fans out internally per
/// BatchOptions::num_threads).  The trees must outlive the service.
class SubscriptionService {
 public:
  /// Serves ticks over these trees: pass the same unified tree twice for
  /// the 1-tree configuration (Section 4.5), as with BatchRunner.
  SubscriptionService(const rtree::RStarTree& data_tree,
                      const rtree::RStarTree& obstacle_tree,
                      const SubscriptionOptions& opts = {});

  /// Registers a route, effective on the next Tick().  Returns the new
  /// client's id; rejects empty/non-finite routes, speed <= 0, or k < 1.
  StatusOr<int64_t> Subscribe(const RouteSpec& route, size_t k);

  /// Removes a live or quarantined client, effective immediately.
  Status Unsubscribe(int64_t client_id);

  /// Advances every live client one arc step and re-evaluates its COkNN.
  TickResult Tick();

  uint64_t ticks() const { return tick_; }
  size_t live_clients() const;
  size_t quarantined_clients() const;

 private:
  struct Client {
    RouteSpec route;
    std::vector<double> arc_at;  ///< cumulative arc length per waypoint
    size_t k = 1;
    uint64_t first_tick = 0;  ///< the tick covering the route's first slice
    bool quarantined = false;
    std::optional<core::CoknnResult> prior;  ///< last tick's answer
  };

  /// The arc slice client \p c covers on tick \p tick.
  geom::Segment SegmentAtTick(const Client& c, uint64_t tick) const;

  BatchRunner runner_;
  SubscriptionOptions opts_;
  std::map<int64_t, Client> clients_;  ///< ordered: deterministic batches
  int64_t next_id_ = 0;
  uint64_t tick_ = 0;
  uint64_t ticks_since_reshard_ = 0;
  std::vector<int64_t> last_batched_;  ///< client ids of the current plan
  BatchPlan plan_;
};

}  // namespace exec
}  // namespace conn

#endif  // CONN_EXEC_SUBSCRIPTION_H_
