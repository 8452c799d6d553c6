#include "core/odist.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "geom/distance.h"
#include "geom/predicates.h"
#include "vis/dijkstra.h"

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Admission slack.  The exactness argument in odist.h compares exact
// quantities: a local path of length L <= U and an obstacle it meets, with
// mindist(p, o) + mindist(o, q) <= L.  IOR compares computed values.  A
// Dijkstra distance sums at most n < |SVG| edge lengths, each a square
// root correct to a few ulps, so it is off by at most about 4n·u·L
// (u = 2^-53); U and the admission sum add a few roundings more, so both
// sides together are off by at most about 8n·u·L.  For n up to 10^4 and L
// up to five workspace sides (5e4) that is 8·1e4 · 1.1e-16 · 5e4 ≈ 4.4e-7,
// below kEpsDist.  A larger slack only admits more.
constexpr double kAdmissionSlack = geom::kEpsDist;

/// U of the file comment in odist.h for the targets' current local
/// distances; \p d is their maximum.
double AdmissionBound(const vis::DijkstraScan& scan, const vis::VisGraph& vg,
                      const std::vector<vis::VertexId>& targets, double d) {
  if (targets.size() == 1) return d;  // one anchor
  CONN_CHECK_MSG(targets.size() % 2 == 0,
                 "IOR targets come in piece-endpoint pairs");
  double u = d;
  for (size_t i = 0; i < targets.size(); i += 2) {
    const double piece =
        geom::Dist(vg.VertexPos(targets[i]), vg.VertexPos(targets[i + 1]));
    u = std::max(u, 0.5 * (scan.DistOf(targets[i]) +
                           scan.DistOf(targets[i + 1]) + piece));
  }
  return u;
}
}  // namespace

bool TreeObstacleSource::NextObstacleWithin(double bound,
                                            rtree::DataObject* out,
                                            double* dist) {
  // Note: with bound == +inf (IOR's full-drain fallback) the peek test
  // cannot reject an exhausted stream (inf > inf is false), so Next() must
  // be allowed to report exhaustion.
  if (it_.PeekDist() > bound) return false;
  if (!it_.Next(out, dist)) return false;
  CONN_CHECK_MSG(out->kind == rtree::ObjectKind::kObstacle,
                 "obstacle tree contains a non-obstacle entry");
  return true;
}

bool UnifiedStream::NextObstacleWithin(double bound, rtree::DataObject* out,
                                       double* dist) {
  while (it_.PeekDist() <= bound) {
    rtree::DataObject obj;
    double d = 0.0;
    if (!it_.Next(&obj, &d)) return false;  // exhausted (bound may be +inf)
    retrieved_up_to_ = std::max(retrieved_up_to_, d);
    if (obj.kind == rtree::ObjectKind::kObstacle) {
      *out = obj;
      *dist = d;
      return true;
    }
    pending_points_.emplace_back(obj, d);
  }
  return false;
}

StreamOutcome UnifiedStream::NextPointWithin(double bound,
                                             rtree::DataObject* out,
                                             double* dist) {
  // Pending points were popped in ascending order, so the front is the
  // global minimum over all unprocessed points.
  if (!pending_points_.empty()) {
    if (pending_points_.front().second > bound) {
      return StreamOutcome::kBoundReached;
    }
    *out = pending_points_.front().first;
    *dist = pending_points_.front().second;
    pending_points_.pop_front();
    return StreamOutcome::kYielded;
  }
  while (true) {
    const double peek = it_.PeekDist();
    if (peek == kInf) {
      return StreamOutcome::kExhausted;
    }
    if (peek > bound) return StreamOutcome::kBoundReached;
    rtree::DataObject obj;
    double d = 0.0;
    CONN_CHECK(it_.Next(&obj, &d));  // finite peek => an object exists
    retrieved_up_to_ = std::max(retrieved_up_to_, d);
    if (obj.kind == rtree::ObjectKind::kPoint) {
      *out = obj;
      *dist = d;
      return StreamOutcome::kYielded;
    }
    // Paper semantics for the unified traversal: a popped obstacle is
    // inserted into the local visibility graph right away.
    vg_->AddObstacle(obj.rect, obj.id);
  }
}

bool CoverageGuardedSource::NextObstacleWithin(double bound,
                                               rtree::DataObject* out,
                                               double* dist) {
  if (log_ != nullptr) {
    if (bound != memo_bound_) {
      memo_bound_ = bound;
      int64_t owner = -1;
      memo_covered_ = log_->Covers(query_, bound, &owner);
      if (memo_covered_ && stats_ != nullptr && owner != client_tag_) {
        ++stats_->frontier_shares;
      }
    }
    // Covered: every obstacle within the bound is already in the graph, so
    // no *new* obstacle remains within it.  The inner cursor stays put.
    if (memo_covered_) return false;
  }
  if (!inner_->NextObstacleWithin(bound, out, dist)) return false;
  ++yields_;
  return true;
}

double IncrementalObstacleRetrieval(
    ObstacleSource* source, vis::VisGraph* vg,
    const std::vector<vis::VertexId>& targets, geom::Vec2 p,
    double* retrieved_up_to, QueryStats* stats,
    std::unique_ptr<vis::DijkstraScan>* out_scan, vis::ScanArena* arena,
    bool warm_restarts) {
  CONN_CHECK_MSG(!targets.empty(), "IOR requires at least one target vertex");
  // Local shortest paths on the current graph (Algorithm 1 line 2).
  auto make_scan = [&] {
    return arena != nullptr
               ? std::make_unique<vis::DijkstraScan>(vg, p, arena)
               : std::make_unique<vis::DijkstraScan>(vg, p);
  };
  auto scan = make_scan();
  if (stats != nullptr) ++stats->dijkstra_runs;
  std::vector<ParkedObstacle>& parked = source->parked();
  double d = 0.0;
  while (true) {
    // 1. Local shortest paths to the targets (Algorithm 1 line 2).
    const size_t settled_before = scan->SettledCount();
    d = scan->SettleTargets(targets);
    if (stats != nullptr) {
      stats->dijkstra_settled += scan->SettledCount() - settled_before;
    }
    const double u = source->admits_all()
                         ? kInf
                         : AdmissionBound(*scan, *vg, targets, d) +
                               kAdmissionSlack;
    auto admits = [&](const geom::Rect& rect, double dist) {
      return geom::MinDistRectPoint(rect, p) + dist <= u;
    };
    // On a shard-shared graph an admitted obstacle may already be present
    // (AddObstacle returns false); only a real insertion invalidates the
    // scan and warrants another iteration.
    bool admitted = false;

    // 2. Admit the parked obstacles U now reaches, before the new ones, so
    // the graph grows in stream order.
    size_t kept = 0;
    for (size_t i = 0; i < parked.size(); ++i) {
      if (admits(parked[i].rect, parked[i].dist)) {
        if (vg->AddObstacle(parked[i].rect, parked[i].id)) admitted = true;
      } else {
        parked[kept++] = parked[i];
      }
    }
    parked.resize(kept);

    // 3. Stream the rest of the search range: every obstacle with mindist
    // <= d is then admitted or parked (the source yields them in ascending
    // order and refused only those beyond d).
    if (d > *retrieved_up_to) {
      rtree::DataObject obstacle;
      double obstacle_dist = 0.0;
      while (source->NextObstacleWithin(d, &obstacle, &obstacle_dist)) {
        if (admits(obstacle.rect, obstacle_dist)) {
          if (vg->AddObstacle(obstacle.rect, obstacle.id)) admitted = true;
        } else {
          parked.push_back({obstacle.rect, obstacle.id, obstacle_dist});
        }
      }
      *retrieved_up_to = d;
    }

    // Lemma 3: with every obstacle within d streamed and every one within U
    // admitted, an unchanged graph means the paths are final.
    if (!admitted) break;

    // 4. Bring the scan up to date with the grown graph.
    if (warm_restarts) {
      // Lemma-3 restart on the grown graph: roll back only the settlement
      // suffix the new obstacles can reach, keep the provably unaffected
      // prefix.
      scan->Revalidate();
      if (stats != nullptr) ++stats->scan_warm_restarts;
    } else {
      // Reference path: recompute from scratch (destroy first — the arena
      // admits one live scan at a time).
      scan.reset();
      scan = make_scan();
      if (stats != nullptr) ++stats->dijkstra_runs;
    }
  }
  if (out_scan != nullptr) *out_scan = std::move(scan);
  return d;
}

}  // namespace core
}  // namespace conn
