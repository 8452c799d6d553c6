#include "exec/subscription.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "geom/vec.h"

namespace conn {
namespace exec {

namespace {

Status ValidateRoute(const RouteSpec& route, size_t k) {
  if (route.waypoints.empty()) {
    return Status::InvalidArgument("route has no waypoints");
  }
  for (const geom::Vec2& w : route.waypoints) {
    if (!std::isfinite(w.x) || !std::isfinite(w.y)) {
      return Status::InvalidArgument("route waypoint is not finite");
    }
  }
  if (!std::isfinite(route.speed) || route.speed <= 0.0) {
    return Status::InvalidArgument("route speed must be finite and > 0");
  }
  if (k < 1) return Status::InvalidArgument("COkNN requires k >= 1");
  return Status::OK();
}

/// Point at absolute arc length \p s along the route (clamped to its
/// ends).  Positions are derived from the absolute arc value, never
/// accumulated tick over tick — so two tick schedules that visit the same
/// arc value compute bit-identical positions (the half-step metamorphic
/// invariant relies on this).
geom::Vec2 PointAtArc(const RouteSpec& route, const std::vector<double>& cum,
                      double s) {
  if (s <= 0.0) return route.waypoints.front();
  if (s >= cum.back()) return route.waypoints.back();
  const size_t leg = static_cast<size_t>(
      std::upper_bound(cum.begin(), cum.end(), s) - cum.begin());
  const geom::Vec2 a = route.waypoints[leg - 1];
  const geom::Vec2 b = route.waypoints[leg];
  const double t = (s - cum[leg - 1]) / (cum[leg] - cum[leg - 1]);
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace

SubscriptionService::SubscriptionService(const rtree::RStarTree& data_tree,
                                         const rtree::RStarTree& obstacle_tree,
                                         const SubscriptionOptions& opts)
    : runner_(data_tree, obstacle_tree, opts.batch), opts_(opts) {}

StatusOr<int64_t> SubscriptionService::Subscribe(const RouteSpec& route,
                                                 size_t k) {
  Status st = ValidateRoute(route, k);
  if (!st.ok()) return st;
  Client c;
  c.route = route;
  c.k = k;
  c.first_tick = tick_;
  c.arc_at.reserve(route.waypoints.size());
  c.arc_at.push_back(0.0);
  for (size_t i = 1; i < route.waypoints.size(); ++i) {
    c.arc_at.push_back(c.arc_at.back() +
                       Dist(route.waypoints[i - 1], route.waypoints[i]));
  }
  const int64_t id = next_id_++;
  clients_.emplace(id, std::move(c));
  return id;
}

Status SubscriptionService::Unsubscribe(int64_t client_id) {
  if (clients_.erase(client_id) == 0) {
    return Status::NotFound("no such client");
  }
  return Status::OK();
}

size_t SubscriptionService::live_clients() const {
  size_t n = 0;
  for (const auto& [id, c] : clients_) {
    if (!c.quarantined) ++n;
  }
  return n;
}

size_t SubscriptionService::quarantined_clients() const {
  return clients_.size() - live_clients();
}

geom::Segment SubscriptionService::SegmentAtTick(const Client& c,
                                                 uint64_t tick) const {
  const double n = static_cast<double>(tick - c.first_tick);
  const double total = c.arc_at.back();
  const double s0 = std::min(n * c.route.speed, total);
  const double s1 = std::min(s0 + c.route.speed, total);
  return geom::Segment{PointAtArc(c.route, c.arc_at, s0),
                       PointAtArc(c.route, c.arc_at, s1)};
}

TickResult SubscriptionService::Tick() {
  const uint64_t now = tick_;
  TickResult result;
  result.tick = now;

  // Advance every live client, then admit it to this tick's batch —
  // failures quarantine the client here, *before* sharding, so a failing
  // client never touches (or poisons) any shared warm state.
  for (auto& [id, c] : clients_) {
    if (c.quarantined) continue;
    ClientUpdate update;
    update.client = id;
    update.segment = SegmentAtTick(c, now);
    result.updates.push_back(std::move(update));
  }
  std::vector<int64_t> batched_ids;
  std::vector<BatchQuery> queries;
  batched_ids.reserve(result.updates.size());
  queries.reserve(result.updates.size());
  for (ClientUpdate& u : result.updates) {
    Client& c = clients_.at(u.client);
    Status st = opts_.failure_injector != nullptr
                    ? opts_.failure_injector(u.client, now)
                    : Status::OK();
    if (!st.ok()) {
      // Report the error once; drop the carried result so nothing derived
      // from the failed client's state can ever be served again.
      u.status = std::move(st);
      c.prior.reset();
      c.quarantined = true;
      ++result.quarantined_now;
      continue;
    }
    batched_ids.push_back(u.client);
    queries.push_back(BatchQuery::CoknnTick(
        u.segment, c.k, c.prior.has_value() ? &*c.prior : nullptr));
  }

  // Sticky-assignment maintenance: reshard when membership changed (a
  // subscribe / unsubscribe / quarantine) or when routes have drifted for
  // a full period under the old assignment.
  const bool membership_changed = batched_ids != last_batched_;
  const bool period_hit = opts_.reshard_period != 0 &&
                          ticks_since_reshard_ >= opts_.reshard_period;
  if (membership_changed || period_hit) {
    runner_.Reshard(queries, &plan_);
    last_batched_ = std::move(batched_ids);
    ticks_since_reshard_ = 0;
  }

  if (!queries.empty()) {
    BatchResult batch = runner_.RunPlan(queries, &plan_);
    result.stats = std::move(batch.stats);
    size_t qi = 0;
    for (ClientUpdate& u : result.updates) {
      if (!u.status.ok()) continue;
      Client& c = clients_.at(u.client);
      core::CoknnResult& res = *batch.outcomes[qi++].coknn;
      c.prior = res;  // carried into the next tick's memo
      u.result = std::move(res);
    }
    CONN_CHECK(qi == queries.size());
  }

  ++tick_;
  ++ticks_since_reshard_;
  return result;
}

}  // namespace exec
}  // namespace conn
