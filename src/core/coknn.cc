#include "core/coknn.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "core/engine_internal.h"
#include "core/workspace.h"

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

KnnResultList::KnnResultList(const geom::IntervalSet& domain, size_t k)
    : k_(k) {
  CONN_CHECK_MSG(k >= 1, "COkNN requires k >= 1");
  for (const geom::Interval& piece : domain.intervals()) {
    tuples_.push_back(CoknnTuple{piece, {}});
  }
}

double KnnResultList::RlMax(const geom::SegmentFrame& frame) const {
  double max_val = 0.0;
  for (const CoknnTuple& t : tuples_) {
    if (t.candidates.size() < k_) return kInf;
    for (const KnnCandidate& c : t.candidates) {
      const geom::DistanceCurve curve = c.Curve(frame);
      max_val =
          std::max({max_val, curve.Eval(t.range.lo), curve.Eval(t.range.hi)});
    }
  }
  return max_val;
}

void KnnResultList::MergeAdjacent(const geom::SegmentFrame& frame) {
  std::vector<CoknnTuple> merged;
  for (CoknnTuple& t : tuples_) {
    if (!merged.empty()) {
      CoknnTuple& prev = merged.back();
      const bool adjacent = geom::Adjacent(prev.range, t.range);
      // Absorb boundary slivers into the better-filled neighbor (an
      // eps-sized underfull leftover would pin RLMAX at +infinity).
      if (adjacent && t.range.Length() <= geom::kEpsSliver &&
          prev.candidates.size() >= t.candidates.size()) {
        prev.range.hi = t.range.hi;
        continue;
      }
      if (adjacent && prev.range.Length() <= geom::kEpsSliver &&
          t.candidates.size() >= prev.candidates.size()) {
        t.range.lo = prev.range.lo;
        prev = std::move(t);
        continue;
      }
      bool same_set = adjacent && prev.candidates.size() == t.candidates.size();
      if (same_set) {
        // Same candidate multiset (pid + control point + offset)?
        for (const KnnCandidate& c : t.candidates) {
          const bool found = std::any_of(
              prev.candidates.begin(), prev.candidates.end(),
              [&](const KnnCandidate& pc) {
                return pc.pid == c.pid && pc.cp == c.cp &&
                       pc.offset == c.offset;
              });
          if (!found) {
            same_set = false;
            break;
          }
        }
      }
      if (same_set) {
        prev.range.hi = t.range.hi;
        // Re-sort by distance at the merged midpoint for a canonical order.
        const double mid = prev.range.Mid();
        std::sort(prev.candidates.begin(), prev.candidates.end(),
                  [&](const KnnCandidate& a, const KnnCandidate& b) {
                    return a.Curve(frame).Eval(mid) <
                           b.Curve(frame).Eval(mid);
                  });
        continue;
      }
    }
    merged.push_back(std::move(t));
  }
  tuples_ = std::move(merged);
}

void KnnResultList::AssignCandidate(const KnnCandidate& cand,
                                    const geom::Interval& region,
                                    const geom::SegmentFrame& frame,
                                    QueryStats* stats) {
  if (region.Length() <= geom::kEpsParam) return;
  const geom::DistanceCurve challenger = cand.Curve(frame);

  std::vector<CoknnTuple> next;
  next.reserve(tuples_.size() + 2);
  for (CoknnTuple& tuple : tuples_) {
    const geom::Interval overlap = tuple.range.Intersect(region);
    if (overlap.Length() <= geom::kEpsParam) {
      next.push_back(std::move(tuple));
      continue;
    }
    // Leading kept piece.
    if (overlap.lo - tuple.range.lo > geom::kEpsParam) {
      next.push_back(CoknnTuple{geom::Interval(tuple.range.lo, overlap.lo),
                                tuple.candidates});
    }

    // Contested piece: split at every curve crossing that can change set
    // membership — challenger vs members AND members vs members (the
    // "worst member" can swap inside the interval).
    std::vector<double> breaks = {overlap.lo, overlap.hi};
    std::vector<geom::DistanceCurve> curves;
    curves.reserve(tuple.candidates.size());
    for (const KnnCandidate& c : tuple.candidates) {
      curves.push_back(c.Curve(frame));
    }
    if (stats != nullptr) ++stats->split_evaluations;
    for (size_t i = 0; i < curves.size(); ++i) {
      for (double x : geom::CurveCrossings(curves[i], challenger, overlap)) {
        breaks.push_back(x);
      }
      for (size_t j = i + 1; j < curves.size(); ++j) {
        for (double x : geom::CurveCrossings(curves[i], curves[j], overlap)) {
          breaks.push_back(x);
        }
      }
    }
    std::sort(breaks.begin(), breaks.end());
    breaks.erase(std::unique(breaks.begin(), breaks.end(),
                             [](double a, double b) {
                               return std::abs(a - b) <= geom::kEpsParam;
                             }),
                 breaks.end());
    // The eps-tolerant unique pass keeps the first of a near-duplicate run,
    // so a crossing within kEpsParam of overlap.hi swallows the terminal
    // break.  Clamp the surviving break onto overlap.hi instead of
    // re-appending it, which would create an eps-sliver interval.
    if (overlap.hi - breaks.back() > geom::kEpsParam) {
      breaks.push_back(overlap.hi);
    } else {
      breaks.back() = overlap.hi;
    }

    for (size_t i = 0; i + 1 < breaks.size(); ++i) {
      const geom::Interval piece(breaks[i], breaks[i + 1]);
      const double mid = piece.Mid();
      // Rank candidates + challenger at the midpoint; keep the k nearest.
      std::vector<std::pair<double, const KnnCandidate*>> ranked;
      ranked.reserve(tuple.candidates.size() + 1);
      for (size_t c = 0; c < tuple.candidates.size(); ++c) {
        ranked.emplace_back(curves[c].Eval(mid), &tuple.candidates[c]);
      }
      ranked.emplace_back(challenger.Eval(mid), &cand);
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return a.second->pid < b.second->pid;  // deterministic ties
                });
      CoknnTuple out;
      out.range = piece;
      const size_t keep = std::min(k_, ranked.size());
      for (size_t c = 0; c < keep; ++c) {
        out.candidates.push_back(*ranked[c].second);
      }
      next.push_back(std::move(out));
    }

    // Trailing kept piece.
    if (tuple.range.hi - overlap.hi > geom::kEpsParam) {
      next.push_back(CoknnTuple{geom::Interval(overlap.hi, tuple.range.hi),
                                std::move(tuple.candidates)});
    }
  }
  tuples_ = std::move(next);
  MergeAdjacent(frame);
}

void KnnResultList::Update(int64_t pid, const ControlPointList& cpl,
                           const geom::SegmentFrame& frame,
                           QueryStats* stats) {
  for (const CplEntry& ce : cpl) {
    if (!ce.has_value()) continue;
    KnnCandidate cand;
    cand.pid = pid;
    cand.cp = ce.cp;
    cand.offset = ce.offset;
    AssignCandidate(cand, ce.range, frame, stats);
  }
}

const CoknnTuple* CoknnResult::FindTuple(double t) const {
  // The tuples are an ordered partition of the reachable domain: binary
  // search for the first tuple with range.lo > t, then probe the few
  // neighbors that can contain t under ContainsApprox (a boundary value
  // sits in two adjacent tuples; return the earliest, preserving the
  // first-match semantics of the former linear scan).
  auto it = std::upper_bound(
      tuples.begin(), tuples.end(), t,
      [](double v, const CoknnTuple& tup) { return v < tup.range.lo; });
  const size_t idx = static_cast<size_t>(it - tuples.begin());
  for (size_t i = idx >= 2 ? idx - 2 : 0; i < tuples.size() && i <= idx; ++i) {
    if (tuples[i].range.ContainsApprox(t)) return &tuples[i];
  }
  return nullptr;
}

std::vector<int64_t> CoknnResult::KnnAt(double t,
                                        const geom::SegmentFrame& frame) const {
  const CoknnTuple* tup = FindTuple(t);
  if (tup == nullptr) return {};
  std::vector<std::pair<double, int64_t>> ranked;
  ranked.reserve(tup->candidates.size());
  for (const KnnCandidate& c : tup->candidates) {
    ranked.emplace_back(c.Curve(frame).Eval(t), c.pid);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int64_t> ids;
  ids.reserve(ranked.size());
  for (const auto& [d, pid] : ranked) ids.push_back(pid);
  return ids;
}

std::vector<int64_t> CoknnResult::KnnAt(double t) const {
  return KnnAt(t, geom::SegmentFrame(query));
}

double CoknnResult::OdistAt(double t, size_t j,
                            const geom::SegmentFrame& frame) const {
  const CoknnTuple* tup = FindTuple(t);
  if (tup == nullptr || j >= tup->candidates.size()) return kInf;
  std::vector<double> vals;
  vals.reserve(tup->candidates.size());
  for (const KnnCandidate& c : tup->candidates) {
    vals.push_back(c.Curve(frame).Eval(t));
  }
  std::sort(vals.begin(), vals.end());
  return vals[j];
}

double CoknnResult::OdistAt(double t, size_t j) const {
  return OdistAt(t, j, geom::SegmentFrame(query));
}

namespace {

/// Stationary-segment memo guard: the prior answer is reusable only for
/// the bit-identical (segment, k) query, under the warm-start gate.
bool TickMemoApplies(const TickWarmStart& warm, const geom::Segment& q,
                     size_t k, const ConnOptions& opts) {
  return opts.use_tick_warm_start && warm.prior != nullptr &&
         warm.prior->query == q && warm.prior->k == k;
}

/// Re-reports \p prior as this tick's answer.  Stats are reset to the work
/// this tick actually did (a copy): only the warm-start marker and the
/// copy's wall time survive — retrieval counters of the original run must
/// not be double-counted into workload aggregates.
CoknnResult TickMemoResult(const CoknnResult& prior) {
  Timer timer;
  CoknnResult result = prior;
  result.stats = QueryStats{};
  result.stats.tick_warm_starts = 1;
  result.stats.cpu_seconds = timer.ElapsedSeconds();
  return result;
}

/// Repair needs a carried workspace (its settlement log is the carried
/// coverage) under both tick gates.  Every workspace the batch layer hands
/// in is a shard workspace built under those same options.
bool RepairApplies(const ConnOptions& opts, const QueryWorkspace* workspace) {
  return opts.use_tick_warm_start && opts.use_differential_repair &&
         workspace != nullptr;
}

}  // namespace

CoknnResult CoknnQuery(const rtree::RStarTree& data_tree,
                       const rtree::RStarTree& obstacle_tree,
                       const geom::Segment& q, size_t k,
                       const ConnOptions& opts, QueryWorkspace* workspace,
                       const TickWarmStart& warm) {
  if (TickMemoApplies(warm, q, k, opts)) return TickMemoResult(*warm.prior);
  internal::RepairHooks repair;
  if (RepairApplies(opts, workspace)) {
    repair = {workspace->settlement_log(), warm.client_tag};
  }
  internal::QueryScope scope(data_tree, obstacle_tree, q, workspace);
  CoknnResult result;
  result.query = q;
  result.k = k;
  const geom::IntervalSet reachable = internal::ReachablePieces(
      scope.Blocked(), q.Length(), &result.unreachable);
  KnnResultList rl(reachable, k);
  scope.RunAlgorithm4(reachable, opts, repair, &rl);
  result.tuples = rl.tuples();
  result.stats = scope.Finish();
  return result;
}

}  // namespace core
}  // namespace conn
