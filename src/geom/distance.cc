#include "geom/distance.h"

#include <algorithm>
#include <cmath>

#include "geom/predicates.h"

namespace conn {
namespace geom {

double ClosestParamOnSegment(Vec2 p, const Segment& s) {
  const double len = s.Length();
  if (len == 0.0) return 0.0;
  const double t = (p - s.a).Dot(s.Delta()) / len;
  return std::clamp(t, 0.0, len);
}

double DistPointSegment(Vec2 p, const Segment& s) {
  // s.At(ClosestParamOnSegment(p, s)), with the length computed once.
  const double len = s.Length();
  if (len == 0.0) return Dist(p, s.a);
  const double t = std::clamp((p - s.a).Dot(s.Delta()) / len, 0.0, len);
  return Dist(p, s.a + s.Delta() * (t / len));
}

double DistSegmentSegment(const Segment& s1, const Segment& s2) {
  if (SegmentsIntersect(s1, s2)) return 0.0;
  return std::min(
      std::min(DistPointSegment(s1.a, s2), DistPointSegment(s1.b, s2)),
      std::min(DistPointSegment(s2.a, s1), DistPointSegment(s2.b, s1)));
}

double MinDistRectPoint(const Rect& r, Vec2 p) {
  const double dx = std::max({r.lo.x - p.x, 0.0, p.x - r.hi.x});
  const double dy = std::max({r.lo.y - p.y, 0.0, p.y - r.hi.y});
  return std::hypot(dx, dy);
}

double MinDistRectSegment(const Rect& r, const Segment& s) {
  if (SegmentIntersectsRect(s, r)) return 0.0;
  // Disjoint: the minimum is attained between the segment and one of the
  // rectangle's edges, at a corner or at an endpoint of s.  An edge that
  // touches s (the clip above can miss a touch by rounding) gives 0;
  // otherwise each distinct corner-to-s and endpoint-to-edge term is
  // evaluated once.  The result equals the minimum over the four edges of
  // DistSegmentSegment(edge, s) bit for bit: min is exact and
  // order-independent on these non-negative values.
  const auto c = r.Corners();
  for (int i = 0; i < 4; ++i) {
    if (SegmentsIntersect(Segment(c[i], c[(i + 1) % 4]), s)) return 0.0;
  }
  double best = DistPointSegment(c[0], s);
  for (int i = 1; i < 4; ++i) {
    best = std::min(best, DistPointSegment(c[i], s));
  }
  for (int i = 0; i < 4; ++i) {
    const Segment edge(c[i], c[(i + 1) % 4]);
    best = std::min({best, DistPointSegment(s.a, edge),
                     DistPointSegment(s.b, edge)});
  }
  return best;
}

double MinDistRectRect(const Rect& a, const Rect& b) {
  const double dx = std::max({a.lo.x - b.hi.x, 0.0, b.lo.x - a.hi.x});
  const double dy = std::max({a.lo.y - b.hi.y, 0.0, b.lo.y - a.hi.y});
  return std::hypot(dx, dy);
}

double MaxDistRectPoint(const Rect& r, Vec2 p) {
  const double dx = std::max(std::abs(p.x - r.lo.x), std::abs(p.x - r.hi.x));
  const double dy = std::max(std::abs(p.y - r.lo.y), std::abs(p.y - r.hi.y));
  return std::hypot(dx, dy);
}

}  // namespace geom
}  // namespace conn
