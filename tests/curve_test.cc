// Tests for SegmentFrame, DistanceCurve, and the crossing solver — the
// machinery realizing Theorem 1 (at most two equal-distance points).

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/curve.h"

namespace conn {
namespace geom {
namespace {

TEST(SegmentFrameTest, ProjectsIntoArcLengthCoordinates) {
  const SegmentFrame f(Segment({0, 0}, {10, 0}));
  EXPECT_DOUBLE_EQ(f.length(), 10.0);
  EXPECT_DOUBLE_EQ(f.ProjectM({3, 5}), 3.0);
  EXPECT_DOUBLE_EQ(f.ProjectH({3, 5}), 5.0);
  EXPECT_DOUBLE_EQ(f.ProjectH({3, -5}), 5.0);  // unsigned
}

TEST(SegmentFrameTest, RotatedSegment) {
  const SegmentFrame f(Segment({0, 0}, {3, 4}));  // length 5
  EXPECT_DOUBLE_EQ(f.length(), 5.0);
  // The segment's endpoint projects to (5, 0).
  EXPECT_NEAR(f.ProjectM({3, 4}), 5.0, 1e-12);
  EXPECT_NEAR(f.ProjectH({3, 4}), 0.0, 1e-12);
  // A point perpendicular off the midpoint.
  const Vec2 mid{1.5, 2.0};
  const Vec2 off = mid + Vec2{-4.0 / 5.0, 3.0 / 5.0} * 2.0;
  EXPECT_NEAR(f.ProjectM(off), 2.5, 1e-12);
  EXPECT_NEAR(f.ProjectH(off), 2.0, 1e-12);
}

TEST(DistanceCurveTest, EvalMatchesDirectComputation) {
  const SegmentFrame f(Segment({0, 0}, {10, 0}));
  const Vec2 cp{4, 3};
  const DistanceCurve c = DistanceCurve::FromControlPoint(f, cp, 7.0);
  for (double t = 0; t <= 10; t += 0.5) {
    EXPECT_NEAR(c.Eval(t), 7.0 + Dist(cp, f.PointAt(t)), 1e-12);
  }
}

TEST(CurveCrossingsTest, EqualOffsetsIsBisector) {
  const SegmentFrame f(Segment({0, 0}, {10, 0}));
  // Control points (2,1) and (8,1) with zero offsets: crossing at x = 5.
  const auto c1 = DistanceCurve::FromControlPoint(f, {2, 1}, 0.0);
  const auto c2 = DistanceCurve::FromControlPoint(f, {8, 1}, 0.0);
  const auto xs = CurveCrossings(c1, c2, Interval(0, 10));
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_NEAR(xs[0], 5.0, 1e-9);
}

TEST(CurveCrossingsTest, IdenticalCurvesReportNone) {
  const SegmentFrame f(Segment({0, 0}, {10, 0}));
  const auto c = DistanceCurve::FromControlPoint(f, {5, 2}, 1.0);
  EXPECT_TRUE(CurveCrossings(c, c, Interval(0, 10)).empty());
}

TEST(CurveCrossingsTest, TwoCrossings) {
  const SegmentFrame f(Segment({0, 0}, {20, 0}));
  // Far control point with small offset vs near control point with large
  // offset: the near one wins only in the middle.
  const auto far = DistanceCurve::FromControlPoint(f, {10, 8}, 0.0);
  const auto near = DistanceCurve::FromControlPoint(f, {10, 1}, 4.0);
  const auto xs = CurveCrossings(far, near, Interval(0, 20));
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_LT(xs[0], 10.0);
  EXPECT_GT(xs[1], 10.0);
  // Verify sign pattern: near wins strictly between the crossings.
  const double mid = 10.0;
  EXPECT_LT(near.Eval(mid), far.Eval(mid));
  EXPECT_GT(near.Eval(0.0), far.Eval(0.0));
  EXPECT_GT(near.Eval(20.0), far.Eval(20.0));
}

TEST(CurveCrossingsTest, KinkedCurveOnSegmentLine) {
  const SegmentFrame f(Segment({0, 0}, {10, 0}));
  // Control point ON the supporting line: h = 0, V-shaped curve.
  const auto v = DistanceCurve::FromControlPoint(f, {5, 0}, 0.0);
  const auto flat = DistanceCurve::FromControlPoint(f, {5, 3}, 0.0);
  // |t-5| = sqrt((t-5)^2+9) has no solution; with offset it does:
  const auto lifted = DistanceCurve::FromControlPoint(f, {5, 0}, 2.0);
  EXPECT_TRUE(CurveCrossings(v, flat, Interval(0, 10)).empty());
  const auto xs = CurveCrossings(lifted, flat, Interval(0, 10));
  // 2 + |t-5| = sqrt((t-5)^2 + 9): |t-5| = 5/4 -> t = 3.75, 6.25.
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_NEAR(xs[0], 3.75, 1e-9);
  EXPECT_NEAR(xs[1], 6.25, 1e-9);
}

// A spurious root of the squared equation once reached this pair's single
// crossing by bisection and landed 1.02e-7 from the Newton root, past the
// kEpsParam dedupe, so one sign change was reported twice.
TEST(CurveCrossingsTest, OneSignChangeIsOneCrossing) {
  const SegmentFrame f(Segment({0, 0}, {10000, 0}));
  const auto c1 = DistanceCurve::FromControlPoint(
      f, {3131.9945892130991, 292.34280434623173}, 6775.2327347589517);
  const auto c2 = DistanceCurve::FromControlPoint(
      f, {11574.084193321794, 4001.7894694415595}, 734.46633673912493);
  const Interval domain(1855.7475404763645, 10000);
  const auto xs = CurveCrossings(c1, c2, domain);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_NEAR(xs[0], 4872.4075214732457, 1e-9);
  const double before = c1.Eval(xs[0] - 1) - c2.Eval(xs[0] - 1);
  const double after = c1.Eval(xs[0] + 1) - c2.Eval(xs[0] + 1);
  EXPECT_LT(before * after, 0.0);
}

class CurveCrossingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CurveCrossingProperty, CrossingsMatchDenseSignScan) {
  Rng rng(GetParam());
  const SegmentFrame f(Segment({0, 0}, {100, 0}));
  for (int iter = 0; iter < 300; ++iter) {
    const auto c1 = DistanceCurve::FromControlPoint(
        f, {rng.Uniform(-20, 120), rng.Uniform(0, 60)}, rng.Uniform(0, 80));
    const auto c2 = DistanceCurve::FromControlPoint(
        f, {rng.Uniform(-20, 120), rng.Uniform(0, 60)}, rng.Uniform(0, 80));
    const Interval domain(0, 100);
    const auto xs = CurveCrossings(c1, c2, domain);
    ASSERT_LE(xs.size(), 2u);  // Theorem 1

    // Dense scan: every sign change must be near a reported crossing, and
    // every reported crossing must have |g| ~ 0.
    for (double x : xs) {
      EXPECT_LE(std::abs(c1.Eval(x) - c2.Eval(x)), 1e-5);
    }
    const int kGrid = 400;
    double prev = c1.Eval(0) - c2.Eval(0);
    for (int i = 1; i <= kGrid; ++i) {
      const double t = 100.0 * i / kGrid;
      const double cur = c1.Eval(t) - c2.Eval(t);
      if (prev * cur < 0.0 && std::abs(prev) > 1e-7 && std::abs(cur) > 1e-7) {
        // A sign change inside (t - step, t): some crossing must be nearby.
        bool found = false;
        for (double x : xs) {
          if (x >= 100.0 * (i - 1) / kGrid - 1e-6 && x <= t + 1e-6) {
            found = true;
          }
        }
        EXPECT_TRUE(found) << "sign change near t=" << t << " not reported";
      }
      prev = cur;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-shaped pairs against a long-double reference.  The engine contests
// short pieces of segments 450 to 10,000 long, with offsets up to 0.8 of the
// length, and meets the solver's edge cases: offsets equal to within 1e-11,
// a control point on the supporting line (h = 0), near-identical curves,
// and an offset gap equal to the control points' distance (the paper's
// Case 1 boundary, where the curves touch: a double root).
// ---------------------------------------------------------------------------

using Real = long double;
constexpr double kUlp = std::numeric_limits<double>::epsilon();
constexpr Real kUlpLd = std::numeric_limits<Real>::epsilon();

Real DiffLd(const DistanceCurve& a, const DistanceCurve& b, Real t) {
  const Real ra = std::sqrt((t - a.m) * (t - a.m) + Real(a.h) * a.h);
  const Real rb = std::sqrt((t - b.m) * (t - b.m) + Real(b.h) * b.h);
  return (a.offset + ra) - (b.offset + rb);
}

Real SlopeLd(const DistanceCurve& a, const DistanceCurve& b, Real t) {
  const Real ra = std::sqrt((t - a.m) * (t - a.m) + Real(a.h) * a.h);
  const Real rb = std::sqrt((t - b.m) * (t - b.m) + Real(b.h) * b.h);
  return (ra == 0 ? 0 : (t - a.m) / ra) - (rb == 0 ? 0 : (t - b.m) / rb);
}

// Magnitude of the terms of c1(t) - c2(t): its rounding scales with it.
double Scale(const DistanceCurve& a, const DistanceCurve& b, double t) {
  return a.offset + b.offset + std::hypot(t - a.m, a.h) +
         std::hypot(t - b.m, b.h);
}

// A root of the long-double difference between \p lo and \p hi, where it
// changes sign.
Real BisectLd(const DistanceCurve& a, const DistanceCurve& b, Real lo,
              Real hi) {
  const bool lo_neg = DiffLd(a, b, lo) < 0;
  for (int i = 0; i < 200; ++i) {
    const Real mid = (lo + hi) / 2;
    if (mid <= lo || mid >= hi) break;
    ((DiffLd(a, b, mid) < 0) == lo_neg ? lo : hi) = mid;
  }
  return (lo + hi) / 2;
}

struct EnginePair {
  DistanceCurve c1, c2;
  Interval domain;
};

EnginePair DrawEnginePair(Rng& rng, int kind) {
  const double len = rng.Uniform(0, 1) < 0.5 ? 450.0 : 10000.0;
  const SegmentFrame f(Segment({0, 0}, {len, 0}));
  auto draw_cp = [&] {
    return Vec2{rng.Uniform(-0.3 * len, 1.3 * len), rng.Uniform(-len, len)};
  };
  Vec2 p1 = draw_cp(), p2 = draw_cp();
  double o1 = rng.Uniform(0, 0.8 * len), o2 = rng.Uniform(0, 0.8 * len);
  switch (kind) {
    case 1:  // equal offsets up to 1e-11
      o2 = o1 + rng.Uniform(-1e-11, 1e-11);
      break;
    case 2:  // a control point on the supporting line
      p1.y = 0;
      break;
    case 3:  // near-identical curves
      p2 = p1 + Vec2{rng.Uniform(-1e-3, 1e-3), rng.Uniform(-1e-3, 1e-3)};
      o2 = o1 + rng.Uniform(-1e-3, 1e-3);
      break;
    case 4:  // offset gap at the control points' distance
      o1 = o2 + Dist(p1, p2) * (1 + rng.Uniform(-1e-9, 1e-9));
      if (rng.Uniform(0, 1) < 0.5) std::swap(o1, o2);
      break;
    default:
      break;
  }
  // A short contested piece, as the engine's contests are, or the whole
  // segment.
  double piece = len * std::pow(10.0, rng.Uniform(-6, -1));
  if (kind == 0 && rng.Uniform(0, 1) < 0.2) piece = len;
  const double lo = rng.Uniform(0, len - piece);
  EnginePair pair;
  pair.c1 = DistanceCurve::FromControlPoint(f, p1, o1);
  pair.c2 = DistanceCurve::FromControlPoint(f, p2, o2);
  pair.domain = Interval(lo, lo + piece);
  return pair;
}

// Every sign change of c1 - c2 in the domain is reported exactly once, near
// its long-double bisection root; a reported point with no sign change near
// it must be a touch.  Tolerances, all from the solver's contract:
//  * every reported t has |c1 - c2| <= kEpsDist * (1 + |o1| + |o2|);
//  * a crossing lies within slack + (1e-10 + 8 ulp * scale) / |g'| of the
//    long-double root.  slack is the solver's max(kEpsParam, 1e-9 * (1 +
//    |domain|)), by which a root just outside the domain is still reported
//    at its end; the polish stops at |g| <= 1e-10, and g evaluated in
//    double carries a rounding of a few ulps of its terms' scale, which
//    moves a root by that over the slope g';
//  * sign changes whose windows overlap form one cluster (a tangential
//    double root), reported at least once and at most once per change.
TEST_P(CurveCrossingProperty, EngineShapedCrossingsMatchLongDoubleRoots) {
  Rng rng(GetParam() * 7919);
  for (int iter = 0; iter < 2000; ++iter) {
    const EnginePair pair = DrawEnginePair(rng, iter % 5);
    const DistanceCurve& c1 = pair.c1;
    const DistanceCurve& c2 = pair.c2;
    const Interval& domain = pair.domain;
    const auto xs = CurveCrossings(c1, c2, domain);
    ASSERT_LE(xs.size(), 2u);  // Theorem 1
    const double tol_g = kEpsDist * (1.0 + c1.offset + c2.offset);
    const double slack = std::max(kEpsParam, 1e-9 * (1.0 + domain.Length()));
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_TRUE(domain.Contains(xs[i]));
      EXPECT_LE(std::abs(DiffLd(c1, c2, xs[i])), tol_g);
      if (i > 0) {
        EXPECT_GT(xs[i] - xs[i - 1], kEpsParam);
      }
    }

    // Sign scan: a uniform grid plus the points a slack either side of each
    // reported crossing; points within long-double rounding of zero carry
    // no sign.
    std::vector<double> grid;
    const int kGrid = 256;
    for (int i = 0; i <= kGrid; ++i) {
      grid.push_back(domain.lo + domain.Length() * i / kGrid);
    }
    for (double x : xs) {
      grid.push_back(std::max(domain.lo, x - slack));
      grid.push_back(std::min(domain.hi, x + slack));
    }
    std::sort(grid.begin(), grid.end());
    struct Window {
      double lo, hi;
      int changes;
    };
    std::vector<Window> windows;
    double last_t = 0;
    int last_sign = 0;
    for (double t : grid) {
      const Real g = DiffLd(c1, c2, t);
      const Real noise = 16 * kUlpLd * Scale(c1, c2, t);
      if (std::abs(g) <= noise) continue;
      const int sign = g < 0 ? -1 : 1;
      if (last_sign != 0 && sign != last_sign) {
        const Real root = BisectLd(c1, c2, last_t, t);
        const double slope = std::abs(double(SlopeLd(c1, c2, root)));
        const double r = double(root);
        const double eval_err = 8 * kUlp * Scale(c1, c2, r);
        const double tol_x = slack + (1e-10 + eval_err) / slope;
        if (!windows.empty() && r - tol_x <= windows.back().hi) {
          windows.back().hi = std::max(windows.back().hi, r + tol_x);
          ++windows.back().changes;
        } else {
          windows.push_back({r - tol_x, r + tol_x, 1});
        }
      }
      last_t = t;
      last_sign = sign;
    }
    std::ostringstream pair_text;
    pair_text.precision(17);
    pair_text << "c1 {" << c1.offset << ", " << c1.m << ", " << c1.h
              << "} c2 {" << c2.offset << ", " << c2.m << ", " << c2.h
              << "} domain " << domain.lo << " " << domain.hi << " got";
    for (double x : xs) pair_text << " " << x;
    for (const Window& w : windows) {
      const auto n = std::count_if(xs.begin(), xs.end(), [&](double x) {
        return x >= w.lo && x <= w.hi;
      });
      std::ostringstream what;
      what << "sign change in [" << w.lo << ", " << w.hi << "]";
      what << " reported " << n << " times: " << pair_text.str();
      EXPECT_GE(n, 1) << what.str();
      EXPECT_LE(n, w.changes) << what.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveCrossingProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace geom
}  // namespace conn
