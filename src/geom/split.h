// Split-point computation (Section 3 of the paper).
//
// Given the distance curve of an incumbent (the current ONN / control point
// over an interval) and of a challenger, the winner can change at most twice
// along the query segment (Theorem 1).  CompareCurves computes the exact
// partition of an interval into winner-labeled sub-intervals using the
// robust crossing solver of curve.h, which polishes only the roots that can
// be split points in that interval; so the partition has at most three
// pieces, held in place.
//
// ClassifyPaperCase is a literal transcription of the paper's Case 1-4
// analysis (valid under Figure 4's preconditions); it exists to cross-check
// the robust engine in tests and to drive the ablation benchmarks.
// EndpointDominancePrune implements Lemma 1's O(1) fast path.

#ifndef CONN_GEOM_SPLIT_H_
#define CONN_GEOM_SPLIT_H_

#include "geom/curve.h"
#include "geom/interval.h"

namespace conn {
namespace geom {

/// Which curve wins (is strictly lower; ties go to the incumbent).
enum class CurveWinner { kIncumbent, kChallenger };

/// A sub-interval together with its winning curve.
struct LabeledInterval {
  Interval interval;
  CurveWinner winner;
};

/// A winner partition: at most three pieces, as two curves cross at most
/// twice (Theorem 1).
using CurvePartition = BoundedList<LabeledInterval, 3>;

/// Partitions \p domain into maximal sub-intervals labeled by the lower
/// curve.  The partition covers the domain exactly; adjacent intervals with
/// the same winner are merged.  Empty domain yields an empty partition.
CurvePartition CompareCurves(const DistanceCurve& incumbent,
                             const DistanceCurve& challenger,
                             const Interval& domain);

/// The paper's split-case taxonomy (Section 3, Cases 1-4).
enum class SplitCase {
  kCase1ChallengerEverywhere,  ///< d >= dist(u, v): challenger replaces all
  kCase2TwoSplits,             ///< a < d < dist(u, v): two split points
  kCase3OneSplit,              ///< -a < d <= a: one split point
  kCase4NoChange,              ///< d <= -a: incumbent keeps everything
};

/// Literal Case 1-4 classification over the *infinite* supporting line of
/// the frame, per Figure 4: d = incumbent.offset - challenger.offset
/// compared against dist(u, v) and a = |m_u - m_v|.  Valid under Figure 4's
/// premises: both control points on the same side of the line, distinct
/// projections (a > 0), and the challenger's control point strictly farther
/// from the line (c > b; footnote 2 of the paper notes the thresholds
/// change otherwise — e.g. with b > c the roles mirror to d >= a /
/// d <= -dist(u,v)).  The caller supplies the true 2-D control points so
/// dist(u, v) is exact.
SplitCase ClassifyPaperCase(const SegmentFrame& frame, Vec2 incumbent_cp,
                            double incumbent_offset, Vec2 challenger_cp,
                            double challenger_offset);

/// Lemma 1 fast path: returns true iff the incumbent provably dominates the
/// challenger over all of \p domain, established from the two endpoint
/// values plus the perpendicular-distance precondition (challenger's control
/// point at least as far from the line).  A false return means "unknown" —
/// run CompareCurves.
bool EndpointDominancePrune(const DistanceCurve& incumbent,
                            const DistanceCurve& challenger,
                            const Interval& domain);

}  // namespace geom
}  // namespace conn

#endif  // CONN_GEOM_SPLIT_H_
