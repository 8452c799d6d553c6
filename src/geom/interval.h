// Closed interval of arc-length parameters along a query segment.
//
// All of the paper's interval-valued notions — visible regions (Def. 2),
// control point list entries (Def. 9), result list entries (Def. 6) — are
// represented as Interval / IntervalSet values over q's [0, Length] axis.

#ifndef CONN_GEOM_INTERVAL_H_
#define CONN_GEOM_INTERVAL_H_

#include <algorithm>
#include <string>

#include "geom/predicates.h"

namespace conn {
namespace geom {

/// Closed parameter interval [lo, hi].  Intervals with hi < lo are "empty".
struct Interval {
  double lo = 0.0;
  double hi = -1.0;  // default-constructed interval is empty

  constexpr Interval() = default;
  constexpr Interval(double l, double h) : lo(l), hi(h) {}

  constexpr bool operator==(const Interval&) const = default;

  constexpr bool IsEmpty() const { return hi < lo; }
  constexpr double Length() const { return IsEmpty() ? 0.0 : hi - lo; }
  constexpr double Mid() const { return 0.5 * (lo + hi); }

  /// True iff the interval is a single point (within \p eps).
  constexpr bool IsDegenerate(double eps = kEpsParam) const {
    return !IsEmpty() && hi - lo <= eps;
  }

  constexpr bool Contains(double t) const {
    return !IsEmpty() && lo <= t && t <= hi;
  }

  /// Containment with tolerance: t within eps of the closed interval.
  constexpr bool ContainsApprox(double t, double eps = kEpsParam) const {
    return !IsEmpty() && lo - eps <= t && t <= hi + eps;
  }

  constexpr Interval Intersect(const Interval& o) const {
    return Interval(std::max(lo, o.lo), std::min(hi, o.hi));
  }

  /// True iff the closed intervals overlap in more than a point (> eps).
  constexpr bool OverlapsProperly(const Interval& o,
                                  double eps = kEpsParam) const {
    return std::min(hi, o.hi) - std::max(lo, o.lo) > eps;
  }

  std::string ToString() const {
    if (IsEmpty()) return "[]";
    // Built via append: the `"[" + std::to_string(...)` operator+ chain
    // trips a GCC 12 -Wrestrict false positive (PR105651) inside
    // libstdc++'s string insert, which the -Werror release build rejects.
    std::string out = "[";
    out += std::to_string(lo);
    out += ", ";
    out += std::to_string(hi);
    out += "]";
    return out;
  }
};

/// True iff \p next starts no more than kEpsParam after \p prev ends: the
/// one adjacency test of every ordered run of pieces (IntervalSet's
/// coalescing, the control point list's and both result lists' merge
/// passes), so no two of them disagree on whether two pieces touch.
constexpr bool Adjacent(const Interval& prev, const Interval& next) {
  return next.lo - prev.hi <= kEpsParam;
}

}  // namespace geom
}  // namespace conn

#endif  // CONN_GEOM_INTERVAL_H_
