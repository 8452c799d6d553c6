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
// quantities: a local path of length L(p, s) <= B(s) and an obstacle it
// meets, so that the gap at s, and with it the gap at s*, is <= 0.  IOR
// compares computed values.  A Dijkstra distance sums at most n < |SVG|
// edge lengths, each a square root correct to a few ulps, so it is off by
// at most about 4n·u·L (u = 2^-53); B*, the admission sum and the two
// mindists add a few roundings more, so both sides together are off by at
// most about 8n·u·L.  The computed s* lies within a few ulps of the
// coordinates (about 1e-11 in the workspace) of the exact peak of the
// computed t*, itself a few ulps of L from the exact t*; the gap is
// 2-Lipschitz in t and the mindist 1-Lipschitz in s, so that adds below
// 1e-10.  For n up to 10^4 and L up to five workspace sides (5e4) the
// total is about 8·1e4 · 1.1e-16 · 5e4 + 1e-10 ≈ 4.5e-7, below kEpsDist.
// A larger slack only admits more.
constexpr double kAdmissionSlack = geom::kEpsDist;

/// The admission ellipses of the file comment for the targets' current
/// (finite) local distances: one peak per piece, its bound widened by the
/// slack.  A single anchor target is the zero-length piece [t, t].
void AdmissionPeaks(const vis::DijkstraScan& scan, const vis::VisGraph& vg,
                    const std::vector<vis::VertexId>& targets,
                    std::vector<PiecePeak>* peaks) {
  CONN_CHECK_MSG(targets.size() == 1 || targets.size() % 2 == 0,
                 "IOR targets come in piece-endpoint pairs");
  peaks->clear();
  for (size_t i = 0; i < targets.size(); i += 2) {
    const vis::VertexId a = targets[i];
    const vis::VertexId b = targets.size() == 1 ? a : targets[i + 1];
    PiecePeak peak = PeakOfPiece(vg.VertexPos(a), vg.VertexPos(b),
                                 scan.DistOf(a), scan.DistOf(b));
    peak.bound += kAdmissionSlack;
    peaks->push_back(peak);
  }
}
}  // namespace

PiecePeak PeakOfPiece(geom::Vec2 a, geom::Vec2 b, double d_a, double d_b) {
  const double len = geom::Dist(a, b);
  // Exactly, |d_a - d_b| <= |ab| (a and b see each other along the piece),
  // so the clamp only absorbs rounding.
  const double t = std::clamp(0.5 * (len + d_b - d_a), 0.0, len);
  const geom::Vec2 s = len > 0.0 ? a + (b - a) * (t / len) : a;
  return {s, std::min(d_a + t, d_b + (len - t))};
}

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

double IncrementalObstacleRetrieval(
    ObstacleSource* source, vis::VisGraph* vg,
    const std::vector<vis::VertexId>& targets, geom::Vec2 p,
    double* retrieved_up_to, QueryStats* stats,
    std::unique_ptr<vis::DijkstraScan>* out_scan, vis::ScanArena* arena,
    bool /*unused*/) {
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
  std::vector<PiecePeak> peaks;
  double d = 0.0;
  while (true) {
    // 1. Local shortest paths to the targets (Algorithm 1 line 2).
    const size_t settled_before = scan->SettledCount();
    d = scan->SettleTargets(targets);
    if (stats != nullptr) {
      stats->dijkstra_settled += scan->SettledCount() - settled_before;
    }
    // d is +inf when a target is unreachable: then everything is admitted.
    const bool admit_all = d == kInf;
    if (!admit_all) AdmissionPeaks(*scan, *vg, targets, &peaks);
    auto admits = [&](const geom::Rect& rect) {
      if (admit_all) return true;
      const double to_p = geom::MinDistRectPoint(rect, p);
      for (const PiecePeak& peak : peaks) {
        if (to_p + geom::MinDistRectPoint(rect, peak.s) <= peak.bound) {
          return true;
        }
      }
      return false;
    };
    // On a shard-shared graph an admitted obstacle may already be present
    // (AddObstacle returns false); only a real insertion invalidates the
    // scan and warrants another iteration.
    bool admitted = false;

    // 2. Admit the parked obstacles the peak ellipses now reach, before the
    // new ones, so the graph grows in stream order.
    size_t kept = 0;
    for (size_t i = 0; i < parked.size(); ++i) {
      if (admits(parked[i].rect)) {
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
        if (admits(obstacle.rect)) {
          if (vg->AddObstacle(obstacle.rect, obstacle.id)) admitted = true;
        } else {
          parked.push_back({obstacle.rect, obstacle.id});
        }
      }
      *retrieved_up_to = d;
    }

    // Lemma 3: with every obstacle within d streamed and every one in a
    // peak ellipse admitted, an unchanged graph means the paths are final.
    if (!admitted) break;

    // 4. Recompute the local shortest paths on the grown graph (Lemma 3):
    // a fresh scan on the same arena (destroy first — the arena admits one
    // live scan at a time).
    scan.reset();
    scan = make_scan();
    if (stats != nullptr) ++stats->dijkstra_runs;
  }
  if (out_scan != nullptr) *out_scan = std::move(scan);
  return d;
}

}  // namespace core
}  // namespace conn
