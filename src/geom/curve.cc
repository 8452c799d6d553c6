#include "geom/curve.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geom/quadratic.h"

namespace conn {
namespace geom {

SegmentFrame::SegmentFrame(const Segment& q) : q_(q), length_(q.Length()) {
  dir_ = (length_ > 0.0) ? q.Delta() / length_ : Vec2{1.0, 0.0};
}

double SegmentFrame::ProjectM(Vec2 p) const { return (p - q_.a).Dot(dir_); }

double SegmentFrame::ProjectH(Vec2 p) const {
  return std::abs(dir_.Cross(p - q_.a));
}

DistanceCurve DistanceCurve::FromControlPoint(const SegmentFrame& frame,
                                              Vec2 cp, double offset) {
  CONN_DCHECK(offset >= 0.0);
  DistanceCurve c;
  c.offset = offset;
  c.m = frame.ProjectM(cp);
  c.h = frame.ProjectH(cp);
  return c;
}

double DistanceCurve::Eval(double t) const {
  return offset + std::hypot(t - m, h);
}

bool DistanceCurve::SameFunction(const DistanceCurve& o) const {
  return std::abs(offset - o.offset) <= kEpsDist &&
         std::abs(m - o.m) <= kEpsParam && std::abs(h - o.h) <= kEpsDist;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// g(t) = c1(t) - c2(t), whose roots are the crossings, and its slope g'(t).
struct Diff {
  double g;
  double dg;
};

// One radical per curve serves both the value (DistanceCurve::Eval's
// expression) and the slope (t - m) / radical, taken as 0 at a kink where
// the radical is 0.
Diff EvalDiff(const DistanceCurve& c1, const DistanceCurve& c2, double t) {
  const double r1 = std::hypot(t - c1.m, c1.h);
  const double r2 = std::hypot(t - c2.m, c2.h);
  const double d1 = (r1 == 0.0) ? 0.0 : (t - c1.m) / r1;
  const double d2 = (r2 == 0.0) ? 0.0 : (t - c2.m) / r2;
  return {(c1.offset + r1) - (c2.offset + r2), d1 - d2};
}

// A Newton polish that ends with |g| above this falls back to bisection,
// so a polished root can carry |g| up to it.
constexpr double kNewtonStop = 1e-10;

// Polishes a root of g with Newton iterations, falling back to bisection on
// a sign-changing bracket around the candidate when Newton stalls (e.g. at
// near-tangential crossings where g' ~ 0).
double NewtonPolish(const DistanceCurve& c1, const DistanceCurve& c2,
                    double t0) {
  Diff best = EvalDiff(c1, c2, t0);
  double best_t = t0;
  double best_g = std::abs(best.g);
  for (int iter = 0; iter < 30 && best_g > 1e-13; ++iter) {
    if (std::abs(best.dg) < 1e-14) break;
    const double t = best_t - best.g / best.dg;
    if (!std::isfinite(t)) break;
    const Diff next = EvalDiff(c1, c2, t);
    if (!(std::abs(next.g) < best_g)) break;
    best = next;
    best_t = t;
    best_g = std::abs(next.g);
  }
  if (best_g <= kNewtonStop) return best_t;

  // Bisection fallback: search for a sign-changing bracket around best_t
  // with geometrically growing radius, then bisect to machine precision.
  const double g0 = best.g;
  double radius = 1e-6 * (1.0 + std::abs(best_t));
  for (int grow = 0; grow < 40; ++grow, radius *= 2.0) {
    for (const double side : {-1.0, 1.0}) {
      const double tb = best_t + side * radius;
      const double gb = EvalDiff(c1, c2, tb).g;
      if (g0 * gb >= 0.0) continue;
      double lo = std::min(best_t, tb), hi = std::max(best_t, tb);
      double glo = (lo == tb) ? gb : g0;
      for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double gm = EvalDiff(c1, c2, mid).g;
        if (glo * gm <= 0.0) {
          hi = mid;
        } else {
          lo = mid;
          glo = gm;
        }
      }
      return 0.5 * (lo + hi);
    }
  }
  return best_t;  // no bracket: tangential touch; best effort
}

// Rounding unit of the margins below: 32u, with u = epsilon / 2 the unit
// roundoff.  Each quantity they bound is a short sum of products of the
// centred inputs (each within half an ulp after centring) and the root, at
// most about a dozen dependent operations, so by the standard a-priori
// bound it errs by at most gamma_n <= 16u times the same sum taken over
// absolute values; doubling that covers the inputs' own rounding.
constexpr double kGamma = 16.0 * std::numeric_limits<double>::epsilon();

// Distance from a point r within which a root of an exactly known
// quadratic in e = t - r, P(r) + P'(r) e + a e^2, lies, given computed
// values \p p, \p dp and \p a that err by at most \p p_err, \p dp_err and
// \p a_err.  The root nearest r is 2 P / (|P'| + sqrt(P'^2 - 4 a P)) from
// it, at most 2 |P| / |P'|; the product of the two roots is P / a, so the
// nearer one is also within sqrt(|P / a|).  A bound whose denominator may
// vanish is not used; with neither, the radius is infinite.
double RootRadius(double p, double dp, double a, double p_err, double dp_err,
                  double a_err) {
  const double res = std::abs(p) + p_err;
  const double slope = std::abs(dp) - dp_err;
  const double curv = std::abs(a) - a_err;
  double radius = kInf;
  if (slope > 0.0) radius = 2.0 * res / slope;
  if (curv > 0.0) radius = std::min(radius, std::sqrt(res / curv));
  return radius;
}

}  // namespace

Crossings CurveCrossings(const DistanceCurve& c1, const DistanceCurve& c2,
                         const Interval& domain) {
  Crossings out;
  if (domain.IsEmpty()) return out;
  if (c1.SameFunction(c2)) return out;  // identical: tie everywhere

  // Derivation (squaring Equation (1) twice; see curve.h):
  //   sqrt(A) - sqrt(B) = delta,  A = (t-m1)^2 + h1^2,  B = (t-m2)^2 + h2^2,
  //   delta = c2.offset - c1.offset.
  // Solved in coordinates centered between the two projections — the
  // coefficients involve m^2 terms that cancel catastrophically when the
  // projections are large, and centering keeps their magnitude at the
  // *separation* scale instead of the absolute-position scale.  The first
  // squaring gives L = A - B - delta^2 = alpha*t + beta - delta^2 =
  // 2*delta*sqrt(B); the second, L^2 = 4*delta^2*B, the quadratic below.
  const double center = 0.5 * (c1.m + c2.m);
  const double m1 = c1.m - center, h1 = c1.h;
  const double m2 = c2.m - center, h2 = c2.h;
  const double delta = c2.offset - c1.offset;
  const double alpha = 2.0 * (m2 - m1);
  const double beta = m1 * m1 + h1 * h1 - m2 * m2 - h2 * h2;
  // beta's terms in absolute value: its rounding scales with this.
  const double sigma = m1 * m1 + h1 * h1 + m2 * m2 + h2 * h2;

  // Equal offsets: crossing where the radicands agree, alpha*t + beta = 0,
  // a line with no radical sign to check.
  const bool linear = std::abs(delta) <= 1e-12;
  const double d2 = linear ? 0.0 : delta * delta;
  const double qa = alpha * alpha - 4.0 * d2;
  double roots[2];
  int n = 0;
  if (linear) {
    if (std::abs(alpha) > 1e-14) roots[n++] = -beta / alpha;
  } else {
    // (alpha*t + beta - delta^2)^2 = 4*delta^2*((t-m2)^2 + h2^2)
    const double qb = 2.0 * alpha * (beta - d2) + 8.0 * d2 * m2;
    const double qc =
        (beta - d2) * (beta - d2) - 4.0 * d2 * (m2 * m2 + h2 * h2);
    n = SolveQuadratic(qa, qb, qc, roots);
  }

  // A root r of the computed quadratic is polished only if it can be a
  // crossing in the domain.  The exact squared equation is P(r) = L(r)^2 -
  // 4 delta^2 B(r) = 0 (P = L on the linear branch), and it is evaluated in
  // that factored form: L^(r) errs by at most l_err = kGamma * (|alpha r| +
  // sigma + delta^2), and P^(r) and P'(r) = 2 alpha L - 8 delta^2 (r - m2)
  // by what that error and kGamma of their other terms' magnitudes give.
  // (The expanded coefficients would carry the rounding of beta's squares
  // into their squares, far more when beta itself cancels.)  RootRadius
  // then gives e_root, the distance from r within which the exact root
  // lies; it needs no bound on SolveQuadratic's own error.  Then:
  //  * Radical sign.  At a genuine root L = 2*delta*sqrt(B) has delta's
  //    sign; the second squaring adds the roots of L = -2*delta*sqrt(B).
  //    L is linear with slope alpha, so at r a genuine root still gives
  //    sign(delta) * L(r) >= -|alpha| * e_root, and L^(r) errs by at most
  //    l_err.  Below that the root is dropped.
  //  * Distance.  The polish moves r to the exact root, then to where the
  //    rounded g vanishes: the polish ends at |g^| <= kNewtonStop, and g^
  //    carries rounding of at most kGamma * (|o1| + |o2| + sqrt(A) +
  //    sqrt(B)), so it can stop that much over |g'| further on.  A root
  //    farther than slack + e_root + that drift from the domain could not
  //    be kept after its polish, and is dropped.
  // Neither test drops a genuine crossing of the domain.  Besides the work,
  // they save a duplicate: where the curves nearly coincide, the loose |g|
  // test below can pass a polished spurious root next to the genuine one.
  // The roots the first squaring adds (where sqrt(B) + delta < 0) are left
  // to that |g| test after their polish.
  const double tol =
      kEpsDist * (1.0 + std::abs(c1.offset) + std::abs(c2.offset));
  const double slack = std::max(kEpsParam, 1e-9 * (1.0 + domain.Length()));
  double kept[2];
  int m = 0;
  for (int i = 0; i < n; ++i) {
    const double r = roots[i];
    const double l = alpha * r + beta - d2;
    const double l_err = kGamma * (std::abs(alpha * r) + sigma + d2);
    double e_root;
    if (linear) {
      const double dl_err = kGamma * std::abs(alpha);
      e_root = RootRadius(l, alpha, 0.0, l_err, dl_err, 0.0);
    } else {
      const double al = std::abs(alpha);
      const double ar = std::abs(r) + std::abs(m2);
      const double b = (r - m2) * (r - m2) + h2 * h2;
      const double p = l * l - 4.0 * d2 * b;
      const double p_err = l_err * (2.0 * std::abs(l) + l_err) +
                           kGamma * (l * l + 8.0 * d2 * (ar * ar + h2 * h2));
      const double dp = 2.0 * alpha * l - 8.0 * d2 * (r - m2);
      const double dp_err =
          2.0 * al * l_err + kGamma * (2.0 * al * std::abs(l) + 8.0 * d2 * ar);
      const double qa_err = kGamma * (alpha * alpha + 4.0 * d2);
      e_root = RootRadius(p, dp, qa, p_err, dp_err, qa_err);
    }

    const double t0 = center + r;
    const double gap = std::max(domain.lo - t0, t0 - domain.hi);
    if (gap > slack + e_root) {
      const double ra = std::sqrt((r - m1) * (r - m1) + h1 * h1);
      const double rb = std::sqrt((r - m2) * (r - m2) + h2 * h2);
      const double da = (ra == 0.0) ? 0.0 : (r - m1) / ra;
      const double db = (rb == 0.0) ? 0.0 : (r - m2) / rb;
      const double g_err =
          kGamma * (std::abs(c1.offset) + std::abs(c2.offset) + ra + rb);
      // Equal slopes bound nothing (the quotient would be +inf).
      const double slopes = std::abs(da - db);
      if (slopes > 0.0 &&
          gap > slack + e_root + (kNewtonStop + g_err) / slopes) {
        continue;
      }
    }
    if (!linear &&
        (delta > 0.0 ? l : -l) < -(std::abs(alpha) * e_root + l_err)) {
      continue;
    }

    const double t = NewtonPolish(c1, c2, t0);
    if (std::abs(EvalDiff(c1, c2, t).g) > tol) continue;
    if (t < domain.lo - slack || t > domain.hi + slack) continue;
    kept[m++] = std::clamp(t, domain.lo, domain.hi);
  }
  if (m == 2 && kept[1] < kept[0]) std::swap(kept[0], kept[1]);
  // Near-coincident crossings (tangential double roots) are reported once.
  for (int i = 0; i < m; ++i) {
    if (i == 0 || kept[i] - kept[i - 1] > kEpsParam) out.push_back(kept[i]);
  }
  return out;
}

}  // namespace geom
}  // namespace conn
