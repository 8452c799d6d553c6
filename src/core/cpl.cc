#include "core/cpl.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.h"
#include "geom/distance.h"
#include "geom/predicates.h"
#include "geom/split.h"
#include "vis/dijkstra.h"
#include "vis/visible_region.h"

namespace conn {
namespace core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Merges adjacent entries held by the same curve and absorbs boundary
/// slivers (an eps-sized unheld leftover would keep CPLMAX / RLMAX infinite
/// and defeat the Lemma 7 / Lemma 2 termination).  In place: an entry is
/// only ever written at or before the one being read.
void MergeAdjacent(ControlPointList* list) {
  size_t kept = 0;
  for (const CplEntry& e : *list) {
    if (kept > 0) {
      CplEntry& prev = (*list)[kept - 1];
      const bool adjacent = geom::Adjacent(prev.range, e.range);
      const bool same =
          prev.pid == e.pid &&
          (!e.has_value() || (prev.cp == e.cp && prev.offset == e.offset));
      if (adjacent && same) {
        prev.range.hi = e.range.hi;
        continue;
      }
      if (adjacent && e.range.Length() <= geom::kEpsSliver &&
          prev.has_value()) {
        prev.range.hi = e.range.hi;
        continue;
      }
      if (adjacent && prev.range.Length() <= geom::kEpsSliver &&
          e.has_value()) {
        const double lo = prev.range.lo;
        prev = e;
        prev.range.lo = lo;
        continue;
      }
    }
    (*list)[kept++] = e;
  }
  list->resize(kept);
}

}  // namespace

ControlPointList UnheldPieces(const geom::IntervalSet& domain) {
  ControlPointList list;
  for (const geom::Interval& piece : domain.intervals()) {
    CplEntry& e = list.emplace_back();
    e.range = piece;
  }
  return list;
}

bool ContestEntries(ControlPointList* list, int64_t pid, geom::Vec2 cp,
                    double offset, const geom::IntervalSet& regions,
                    const geom::SegmentFrame& frame, bool use_lemma1_prune,
                    QueryStats* stats) {
  if (regions.IsEmpty()) return false;
  const geom::DistanceCurve challenger =
      geom::DistanceCurve::FromControlPoint(frame, cp, offset);
  CplEntry won;
  won.pid = pid;
  won.cp = cp;
  won.offset = offset;

  bool any_contested = false;
  ControlPointList next;
  next.reserve(list->size() + 2);
  for (const CplEntry& entry : *list) {
    const geom::IntervalSet contested = regions.Intersect(entry.range);
    if (contested.IsEmpty()) {
      next.push_back(entry);
      continue;
    }
    any_contested = true;
    // Walk the entry's range, alternating kept and contested pieces.
    double cursor = entry.range.lo;
    auto push = [&](const CplEntry& holder, geom::Interval range) {
      next.push_back(holder);
      next.back().range = range;
    };
    auto push_kept = [&](double lo, double hi) {
      if (hi - lo > geom::kEpsParam) push(entry, geom::Interval(lo, hi));
    };
    for (const geom::Interval& piece : contested.intervals()) {
      push_kept(cursor, piece.lo);
      cursor = std::max(cursor, piece.hi);
      const geom::Interval sub(std::max(piece.lo, entry.range.lo),
                               std::min(piece.hi, entry.range.hi));
      if (sub.Length() <= geom::kEpsParam) continue;
      if (!entry.has_value()) {
        push(won, sub);  // Algorithm 2 lines 11-12: an unheld piece is taken
        continue;
      }
      const geom::DistanceCurve incumbent = entry.Curve(frame);
      // Algorithm 3 line 7 (Lemma 1): the incumbent keeps the whole piece if
      // it dominates the challenger at both endpoints (with the
      // perpendicular-distance soundness condition of split.h).
      if (use_lemma1_prune &&
          geom::EndpointDominancePrune(incumbent, challenger, sub)) {
        if (stats != nullptr) ++stats->lemma1_prunes;
        push(entry, sub);
        continue;
      }
      if (stats != nullptr) ++stats->split_evaluations;
      for (const geom::LabeledInterval& li :
           geom::CompareCurves(incumbent, challenger, sub)) {
        push(li.winner == geom::CurveWinner::kChallenger ? won : entry,
             li.interval);
      }
    }
    push_kept(cursor, entry.range.hi);
  }
  if (any_contested) *list = std::move(next);
  MergeAdjacent(list);
  return any_contested;
}

double CplMax(const ControlPointList& cpl, const geom::SegmentFrame& frame) {
  double max_val = 0.0;
  for (const CplEntry& e : cpl) {
    if (!e.has_value()) return kInf;
    const geom::DistanceCurve c = e.Curve(frame);
    max_val = std::max({max_val, c.Eval(e.range.lo), c.Eval(e.range.hi)});
  }
  return max_val;
}

bool CplIsPartition(const ControlPointList& cpl,
                    const geom::IntervalSet& domain) {
  // Entries must appear in order and, per domain piece, tile it end to end
  // (small eps-slivers between adjacent entries are tolerated).
  size_t i = 0;
  for (const geom::Interval& piece : domain.intervals()) {
    double cursor = piece.lo;
    while (i < cpl.size() && cpl[i].range.hi <= piece.hi + geom::kEpsParam) {
      if (std::abs(cpl[i].range.lo - cursor) > 4 * geom::kEpsParam) {
        return false;
      }
      cursor = cpl[i].range.hi;
      ++i;
    }
    if (std::abs(cursor - piece.hi) > 4 * geom::kEpsParam) return false;
  }
  return i == cpl.size();
}

const geom::IntervalSet& VisibleRegionCache::Get(
    vis::VisGraph* vg, vis::VertexId v, const geom::SegmentFrame& frame,
    uint64_t* test_counter) {
  if (epoch_ != vg->epoch()) {
    // Selective invalidation: VR(v) is built from sight-lines between v and
    // points of q, all inside the triangle (v, q.a, q.b).  Only entries
    // whose triangle bounding box meets a new obstacle rectangle can have
    // changed; the rest stay cached across the wave.
    const vis::ObstacleSet& obs = vg->obstacles();
    const geom::Segment q = frame.segment();
    const geom::Rect qbox = geom::Rect::FromCorners(q.a, q.b);
    for (size_t u = 0; u < cache_.size(); ++u) {
      if (!cache_[u].has_value()) continue;
      const geom::Rect hull = qbox.ExpandedToCover(
          vg->VertexPos(static_cast<vis::VertexId>(u)));
      for (size_t oi = obstacle_watermark_; oi < obs.size(); ++oi) {
        if (hull.Intersects(obs.rect(oi))) {
          cache_[u].reset();
          ++evictions_;
          break;
        }
      }
    }
    obstacle_watermark_ = obs.size();
    epoch_ = vg->epoch();
  }
  if (cache_.size() < vg->VertexCount()) cache_.resize(vg->VertexCount());
  if (!cache_[v].has_value()) {
    cache_[v] = vis::VisibleRegion(vg->obstacles(), vg->VertexPos(v), frame,
                                   test_counter);
  }
  return *cache_[v];
}

ControlPointList ComputeControlPointList(vis::VisGraph* vg,
                                         vis::DijkstraScan* scan,
                                         geom::Vec2 p,
                                         const geom::SegmentFrame& frame,
                                         const geom::IntervalSet& domain,
                                         const ConnOptions& opts,
                                         QueryStats* stats,
                                         VisibleRegionCache* vr_cache) {
  CONN_CHECK(scan != nullptr && vr_cache != nullptr);
  ControlPointList cpl = UnheldPieces(domain);
  if (cpl.empty()) return cpl;

  uint64_t* vis_counter = stats ? &stats->visibility_tests : nullptr;

  // The data point itself is the control point wherever it directly sees q
  // (the scan iterates graph vertices; p is the scan's source).
  const geom::IntervalSet vr_p =
      vis::VisibleRegion(vg->obstacles(), p, frame, vis_counter);
  ContestEntries(&cpl, kThisPoint, p, 0.0, vr_p, frame, opts.use_lemma1_prune,
                 stats);

  // CPLMAX (Lemma 7) changes only when ContestEntries actually contests
  // an entry; cache it across the (mostly pruned) settled vertices instead
  // of rescanning the whole list per vertex.
  double cplmax = CplMax(cpl, frame);

  const size_t settled_before = scan->SettledCount();
  for (size_t i = 0; scan->EnsureSettled(i); ++i) {
    const auto [v, dist_v, pred] = scan->log()[i];
    if (opts.use_lemma7_terminate && dist_v >= cplmax) {
      // Lemma 7 with the relaxed zero lower bound on mindist(v, q): the
      // scan is ordered by ||p, v||, so every remaining vertex is out too.
      if (stats != nullptr) ++stats->lemma7_terminations;
      break;
    }
    const geom::Vec2 vpos = vg->VertexPos(v);
    if (opts.use_lemma7_terminate &&
        dist_v + geom::DistPointSegment(vpos, frame.segment()) >= cplmax) {
      continue;  // Lemma 7 proper, applied per vertex
    }

    // Lemma 5: v cannot control intervals its path predecessor already sees.
    const geom::IntervalSet& vr_v = vr_cache->Get(vg, v, frame, vis_counter);
    geom::Vec2 upos;
    const geom::IntervalSet* vr_u = nullptr;
    if (pred == vis::kPredSource) {
      upos = p;
      vr_u = &vr_p;
    } else {
      CONN_CHECK(pred >= 0);
      upos = vg->VertexPos(static_cast<vis::VertexId>(pred));
      vr_u = &vr_cache->Get(vg, static_cast<vis::VertexId>(pred), frame,
                            vis_counter);
    }
    geom::IntervalSet candidate_region = vr_v.Subtract(*vr_u);
    if (candidate_region.IsEmpty()) continue;

    if (opts.use_lemma6_refine) {
      // Lemma 6: an interval whose endpoints the predecessor sees cannot be
      // controlled by v unless v lies inside the triangle (u, R.l, R.r).
      std::vector<geom::Interval> kept;
      for (const geom::Interval& r : candidate_region.intervals()) {
        const bool ends_visible_to_u =
            vr_u->Contains(r.lo) && vr_u->Contains(r.hi);
        if (ends_visible_to_u &&
            !geom::PointInTriangle(upos, frame.PointAt(r.lo),
                                   frame.PointAt(r.hi), vpos)) {
          continue;  // pruned by Lemma 6
        }
        kept.push_back(r);
      }
      candidate_region = geom::IntervalSet(std::move(kept));
      if (candidate_region.IsEmpty()) continue;
    }

    if (ContestEntries(&cpl, kThisPoint, vpos, dist_v, candidate_region, frame,
                       opts.use_lemma1_prune, stats)) {
      cplmax = CplMax(cpl, frame);
    }
  }
  if (stats != nullptr) {
    stats->dijkstra_settled += scan->SettledCount() - settled_before;
  }
  return cpl;
}

ControlPointList ComputeControlPointList(vis::VisGraph* vg, geom::Vec2 p,
                                         const geom::SegmentFrame& frame,
                                         const geom::IntervalSet& domain,
                                         const ConnOptions& opts,
                                         QueryStats* stats) {
  vis::DijkstraScan scan(vg, p);
  if (stats != nullptr) ++stats->dijkstra_runs;
  VisibleRegionCache cache;
  return ComputeControlPointList(vg, &scan, p, frame, domain, opts, stats,
                                 &cache);
}

}  // namespace core
}  // namespace conn
