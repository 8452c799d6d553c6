// Distance curves along a query segment.
//
// Once a control point cp for a data point p over an interval R of the query
// segment q is known (Definition 8), the obstructed distance from p to the
// point q(t) is
//
//     f(t) = ||p, cp|| + dist(cp, q(t)) = offset + sqrt((t - m)^2 + h^2)
//
// where (m, h) are cp's coordinates in q's arc-length frame (projection
// parameter m, unsigned perpendicular offset h) and offset = ||p, cp||.
// That is exactly the function family of Equation (2) of the paper; a split
// point (Definition 7) is a crossing of two such curves.  This header
// provides the frame, the curve type, and a robust crossing solver
// (quadratic + Newton polish + midpoint classification) that subsumes the
// paper's Cases 1-4 including all degenerate configurations (a = 0, b = c,
// b > c, h = 0).
//
// The solver squares the crossing equation twice, so its quadratic has up
// to two roots of which only some are crossings.  It polishes a root only
// when the root can be a split point: its radical has the sign of the
// first squaring, and it lies near enough to the domain that a polish could
// bring it inside.  Both tests carry margins derived from the rounding of
// the squared equation's terms (curve.cc), so a genuine crossing is never
// dropped; everything else skips the Newton iterations and the bisection
// fallback.  Theorem 1's bound of two crossings is the result's capacity.

#ifndef CONN_GEOM_CURVE_H_
#define CONN_GEOM_CURVE_H_

#include <cstddef>

#include "common/check.h"
#include "geom/interval.h"
#include "geom/segment.h"
#include "geom/vec.h"

namespace conn {
namespace geom {

/// Arc-length coordinate frame of a query segment: origin at q.a, abscissa
/// along q, ordinate perpendicular.  Maps 2-D points to (m, h) pairs.
class SegmentFrame {
 public:
  /// Builds the frame of \p q.  Zero-length segments are allowed (the frame
  /// maps every point to m = 0, h = dist(point, q.a)).
  explicit SegmentFrame(const Segment& q);

  const Segment& segment() const { return q_; }
  double length() const { return length_; }

  /// Projection parameter of \p p along the segment direction (unclamped).
  double ProjectM(Vec2 p) const;

  /// Unsigned perpendicular distance of \p p from the supporting line.
  double ProjectH(Vec2 p) const;

  /// Point at parameter t (clamped only by the caller).
  Vec2 PointAt(double t) const { return q_.At(t); }

 private:
  Segment q_;
  double length_;
  Vec2 dir_;  // unit direction (arbitrary for zero-length segments)
};

/// A curve f(t) = offset + sqrt((t - m)^2 + h^2) over a segment frame.
struct DistanceCurve {
  double offset = 0.0;  ///< accumulated obstructed distance ||p, cp||
  double m = 0.0;       ///< control point's projection parameter
  double h = 0.0;       ///< control point's perpendicular offset (>= 0)

  /// Builds the curve of control point \p cp with path prefix \p offset.
  static DistanceCurve FromControlPoint(const SegmentFrame& frame, Vec2 cp,
                                        double offset);

  /// f(t).
  double Eval(double t) const;

  /// True iff the two curves are the same function (within tolerance).
  bool SameFunction(const DistanceCurve& o) const;
};

/// At most N values stored in place: the split-point kernel's results have
/// small fixed bounds (Theorem 1), so they never touch the heap.
template <typename T, size_t N>
class BoundedList {
 public:
  void push_back(const T& v) {
    CONN_DCHECK(size_ < N);
    items_[size_++] = v;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return items_[i]; }
  T& back() { return items_[size_ - 1]; }
  const T& front() const { return items_[0]; }
  const T& back() const { return items_[size_ - 1]; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }

 private:
  T items_[N] = {};
  size_t size_ = 0;
};

/// The crossings of two distance curves: at most two (Theorem 1).
using Crossings = BoundedList<double, 2>;

/// All parameters t in \p domain where c1(t) == c2(t), in ascending order,
/// each sign change of c1 - c2 once.
///
/// Identical curves return no crossing (callers must treat ties via
/// midpoint comparison).  Tangential touches report the touch point.  Only
/// roots of the squared equation that pass the radical-sign and distance
/// tests are Newton-polished (see the file comment); a polished root is
/// kept when |c1 - c2| there is within kEpsDist of the offsets' scale and it
/// lies in the domain up to a slack, then clamped into the domain.
Crossings CurveCrossings(const DistanceCurve& c1, const DistanceCurve& c2,
                         const Interval& domain);

}  // namespace geom
}  // namespace conn

#endif  // CONN_GEOM_CURVE_H_
