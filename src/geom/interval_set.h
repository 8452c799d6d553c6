// A set of disjoint, sorted, closed parameter intervals with union /
// intersection / difference.  Used for visible regions (Definition 2) and
// for the reachable portion of the query segment.
//
// Intervals closer than kEpsParam are coalesced, and sub-eps slivers are
// dropped during normalization: the geometry that produces these sets
// (shadow boundaries, curve crossings) is only accurate to ~1e-9 anyway,
// and downstream consumers (Split, RLU) require properly-overlapping
// intervals to act.

#ifndef CONN_GEOM_INTERVAL_SET_H_
#define CONN_GEOM_INTERVAL_SET_H_

#include <string>
#include <vector>

#include "geom/interval.h"

namespace conn {
namespace geom {

/// Immutable-style set of disjoint closed intervals, kept sorted by lo.
class IntervalSet {
 public:
  /// Empty set.
  IntervalSet() = default;

  /// Singleton set (empty if \p iv is empty).
  explicit IntervalSet(const Interval& iv);

  /// Set from arbitrary (possibly overlapping, unsorted) intervals.
  explicit IntervalSet(std::vector<Interval> intervals);

  const std::vector<Interval>& intervals() const { return intervals_; }
  bool IsEmpty() const { return intervals_.empty(); }
  size_t size() const { return intervals_.size(); }

  /// Total length of all member intervals.
  double TotalLength() const;

  /// True iff \p t lies in some member interval (with tolerance).
  bool Contains(double t, double eps = kEpsParam) const;

  /// Set union.
  IntervalSet Union(const IntervalSet& o) const;

  /// Set intersection.
  IntervalSet Intersect(const IntervalSet& o) const;

  /// Intersection with a single interval.
  IntervalSet Intersect(const Interval& iv) const;

  /// Set difference (this minus o).
  IntervalSet Subtract(const IntervalSet& o) const;

  /// Difference with a single interval.
  IntervalSet Subtract(const Interval& iv) const;

  /// Complement within the domain [domain.lo, domain.hi].
  IntervalSet ComplementWithin(const Interval& domain) const;

  std::string ToString() const;

  bool operator==(const IntervalSet&) const = default;

 private:
  /// Sorts, merges (within kEpsParam), and drops empty/sliver intervals.
  void Normalize();

  std::vector<Interval> intervals_;
};

/// The arc-length span of \p s (in [0, s.Length()]) strictly inside the
/// kEpsInterior-shrunk interior of \p r: the part of s that
/// SegmentCrossesInterior calls blocked (empty when there is none).
Interval InteriorSpan(const Segment& s, const Rect& r);

}  // namespace geom
}  // namespace conn

#endif  // CONN_GEOM_INTERVAL_SET_H_
