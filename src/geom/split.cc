#include "geom/split.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace conn {
namespace geom {

CurvePartition CompareCurves(const DistanceCurve& incumbent,
                             const DistanceCurve& challenger,
                             const Interval& domain) {
  CurvePartition out;
  if (domain.IsEmpty()) return out;

  // Breakpoints: domain endpoints plus interior crossings.
  BoundedList<double, 4> breaks;
  breaks.push_back(domain.lo);
  for (double t : CurveCrossings(incumbent, challenger, domain)) {
    if (t > breaks.back() + kEpsParam && t < domain.hi - kEpsParam) {
      breaks.push_back(t);
    }
  }
  breaks.push_back(std::max(domain.hi, breaks.back()));

  for (size_t i = 0; i + 1 < breaks.size(); ++i) {
    const Interval piece(breaks[i], breaks[i + 1]);
    const double mid = piece.Mid();
    // Ties (within tolerance) go to the incumbent: fewer result-list
    // perturbations and deterministic output.
    const double gi = incumbent.Eval(mid);
    const double gc = challenger.Eval(mid);
    const CurveWinner w = (gc < gi - 1e-12) ? CurveWinner::kChallenger
                                            : CurveWinner::kIncumbent;
    if (!out.empty() && out.back().winner == w) {
      out.back().interval.hi = piece.hi;  // merge with previous piece
    } else {
      out.push_back({piece, w});
    }
  }
  return out;
}

SplitCase ClassifyPaperCase(const SegmentFrame& frame, Vec2 incumbent_cp,
                            double incumbent_offset, Vec2 challenger_cp,
                            double challenger_offset) {
  // Paper notation: v = incumbent's control point, u = challenger's,
  // d = ||p, v|| - ||p', u||, a = |proj(u) - proj(v)|.
  const double d = incumbent_offset - challenger_offset;
  const double duv = Dist(incumbent_cp, challenger_cp);
  const double a =
      std::abs(frame.ProjectM(challenger_cp) - frame.ProjectM(incumbent_cp));
  if (d >= duv) return SplitCase::kCase1ChallengerEverywhere;
  if (d > a) return SplitCase::kCase2TwoSplits;
  if (d > -a) return SplitCase::kCase3OneSplit;
  return SplitCase::kCase4NoChange;
}

bool EndpointDominancePrune(const DistanceCurve& incumbent,
                            const DistanceCurve& challenger,
                            const Interval& domain) {
  if (domain.IsEmpty()) return true;
  // Soundness argument (Lemma 1): with the challenger's control point at
  // least as far from the supporting line (h_u >= h_v), the difference
  // Y(t) = dist(u, t) - dist(v, t) is unimodal with a single maximum, so a
  // challenger that loses at both endpoints cannot win anywhere between.
  if (challenger.h < incumbent.h) return false;
  return incumbent.Eval(domain.lo) <= challenger.Eval(domain.lo) &&
         incumbent.Eval(domain.hi) <= challenger.Eval(domain.hi);
}

}  // namespace geom
}  // namespace conn
