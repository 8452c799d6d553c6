// Unit tests for the Euclidean distance metrics, especially
// MinDistRectSegment — the R-tree pruning metric mindist(N, q).

#include <algorithm>
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/distance.h"
#include "geom/predicates.h"

namespace conn {
namespace geom {
namespace {

TEST(DistPointSegmentTest, ProjectionInside) {
  EXPECT_DOUBLE_EQ(DistPointSegment({5, 3}, Segment({0, 0}, {10, 0})), 3.0);
}

TEST(DistPointSegmentTest, ClampsToEndpoints) {
  EXPECT_DOUBLE_EQ(DistPointSegment({-3, 4}, Segment({0, 0}, {10, 0})), 5.0);
  EXPECT_DOUBLE_EQ(DistPointSegment({13, 4}, Segment({0, 0}, {10, 0})), 5.0);
}

TEST(DistPointSegmentTest, ZeroLengthSegment) {
  EXPECT_DOUBLE_EQ(DistPointSegment({3, 4}, Segment({0, 0}, {0, 0})), 5.0);
}

TEST(ClosestParamTest, Basic) {
  const Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(ClosestParamOnSegment({4, 7}, s), 4.0);
  EXPECT_DOUBLE_EQ(ClosestParamOnSegment({-5, 0}, s), 0.0);
  EXPECT_DOUBLE_EQ(ClosestParamOnSegment({50, 0}, s), 10.0);
}

TEST(DistSegmentSegmentTest, IntersectingIsZero) {
  EXPECT_DOUBLE_EQ(DistSegmentSegment(Segment({0, 0}, {4, 4}),
                                      Segment({0, 4}, {4, 0})),
                   0.0);
}

TEST(DistSegmentSegmentTest, ParallelSegments) {
  EXPECT_DOUBLE_EQ(DistSegmentSegment(Segment({0, 0}, {10, 0}),
                                      Segment({0, 3}, {10, 3})),
                   3.0);
}

TEST(DistSegmentSegmentTest, EndpointToInterior) {
  EXPECT_DOUBLE_EQ(DistSegmentSegment(Segment({0, 0}, {10, 0}),
                                      Segment({5, 2}, {5, 9})),
                   2.0);
}

TEST(MinDistRectPointTest, InsideIsZero) {
  EXPECT_DOUBLE_EQ(MinDistRectPoint(Rect({0, 0}, {10, 10}), {5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(MinDistRectPoint(Rect({0, 0}, {10, 10}), {10, 10}), 0.0);
}

TEST(MinDistRectPointTest, SideAndCorner) {
  const Rect r({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(MinDistRectPoint(r, {15, 5}), 5.0);   // side
  EXPECT_DOUBLE_EQ(MinDistRectPoint(r, {13, 14}), 5.0);  // corner 3-4-5
}

TEST(MinDistRectSegmentTest, IntersectingIsZero) {
  EXPECT_DOUBLE_EQ(
      MinDistRectSegment(Rect({0, 0}, {10, 10}), Segment({-5, 5}, {15, 5})),
      0.0);
}

TEST(MinDistRectSegmentTest, SegmentBesideRect) {
  EXPECT_DOUBLE_EQ(
      MinDistRectSegment(Rect({0, 0}, {10, 10}), Segment({12, 0}, {12, 10})),
      2.0);
}

TEST(MinDistRectSegmentTest, DiagonalApproach) {
  EXPECT_NEAR(
      MinDistRectSegment(Rect({0, 0}, {10, 10}), Segment({13, 14}, {20, 20})),
      5.0, 1e-12);
}

TEST(MinDistRectSegmentTest, MatchesBruteForceSampling) {
  // Property check against dense sampling of both the segment and the rect
  // boundary.
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const Rect r = Rect::FromCorners(
        {rng.Uniform(0, 100), rng.Uniform(0, 100)},
        {rng.Uniform(0, 100), rng.Uniform(0, 100)});
    const Segment s({rng.Uniform(0, 100), rng.Uniform(0, 100)},
                    {rng.Uniform(0, 100), rng.Uniform(0, 100)});
    const double fast = MinDistRectSegment(r, s);
    double brute = 1e300;
    for (int i = 0; i <= 64; ++i) {
      const Vec2 p = s.At(s.Length() * i / 64.0);
      brute = std::min(brute, MinDistRectPoint(r, p));
    }
    // Sampling can only overestimate the true minimum.
    EXPECT_LE(fast, brute + 1e-9);
    EXPECT_GE(fast, brute - 2.0);  // coarse lower sanity bound
  }
}

// The expression MinDistRectSegment evaluated before it dropped its
// repeated terms (17 point-segment distances, each computing the segment
// length twice): the oracle of the bit-identity property below.
double OldDistPointSegment(Vec2 p, const Segment& s) {
  return Dist(p, s.At(ClosestParamOnSegment(p, s)));
}

double OldDistSegmentSegment(const Segment& s1, const Segment& s2) {
  if (SegmentsIntersect(s1, s2)) return 0.0;
  return std::min(
      std::min(OldDistPointSegment(s1.a, s2), OldDistPointSegment(s1.b, s2)),
      std::min(OldDistPointSegment(s2.a, s1), OldDistPointSegment(s2.b, s1)));
}

double OldMinDistRectSegment(const Rect& r, const Segment& s) {
  if (SegmentIntersectsRect(s, r)) return 0.0;
  const auto c = r.Corners();
  double best = OldDistPointSegment(s.a, Segment(c[0], c[1]));
  for (int i = 0; i < 4; ++i) {
    const Segment edge(c[i], c[(i + 1) % 4]);
    best = std::min(best, OldDistSegmentSegment(edge, s));
  }
  return best;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// A random rectangle over [0, 1e4]^2 of one of the shapes that stress the
/// corner and edge terms: ordinary, zero-width, zero-height, 1e-9 wide, or
/// a point.
Rect RandomRect(Rng* rng) {
  const Vec2 lo{rng->Uniform(0, 10000), rng->Uniform(0, 10000)};
  double w = rng->Uniform(0, 300);
  double h = rng->Uniform(0, 300);
  const uint64_t shape = rng->NextU64() % 6;
  if (shape == 0 || shape == 3) w = 0.0;
  if (shape == 1 || shape == 3) h = 0.0;
  if (shape == 2) w = 1e-9;
  return Rect(lo, {lo.x + w, lo.y + h});
}

/// A random segment near \p r: ordinary, zero-length, or with an endpoint
/// on one of r's corners or on its top edge.
Segment RandomSegmentNear(const Rect& r, Rng* rng) {
  auto near = [&] {
    return Vec2{r.lo.x + rng->Uniform(-400, 700),
                r.lo.y + rng->Uniform(-400, 700)};
  };
  Vec2 a = near();
  Vec2 b = near();
  const auto c = r.Corners();
  const uint64_t shape = rng->NextU64() % 6;
  if (shape == 0) b = a;
  if (shape == 1) a = c[rng->NextU64() % 4];
  if (shape == 2) b = c[rng->NextU64() % 4];
  if (shape == 3) a = {r.lo.x + rng->NextDouble() * r.Width(), r.hi.y};
  return Segment(a, b);
}

TEST(MinDistRectSegmentTest, BitIdenticalToTheRepeatedTermExpression) {
  Rng rng(2024);
  for (int iter = 0; iter < 300000; ++iter) {
    const Rect r = RandomRect(&rng);
    const Segment s = RandomSegmentNear(r, &rng);
    ASSERT_EQ(Bits(MinDistRectSegment(r, s)), Bits(OldMinDistRectSegment(r, s)))
        << "iter " << iter << " rect [" << r.lo.x << ", " << r.hi.x << "] x ["
        << r.lo.y << ", " << r.hi.y << "] segment (" << s.a.x << ", " << s.a.y
        << ") - (" << s.b.x << ", " << s.b.y << ")";
    ASSERT_EQ(Bits(DistPointSegment(s.a, Segment(r.lo, r.hi))),
              Bits(OldDistPointSegment(s.a, Segment(r.lo, r.hi))))
        << "iter " << iter;
  }
}

TEST(MinDistRectRectTest, Cases) {
  const Rect a({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(MinDistRectRect(a, Rect({5, 5}, {20, 20})), 0.0);
  EXPECT_DOUBLE_EQ(MinDistRectRect(a, Rect({15, 0}, {20, 10})), 5.0);
  EXPECT_DOUBLE_EQ(MinDistRectRect(a, Rect({13, 14}, {20, 20})), 5.0);
}

TEST(MaxDistRectPointTest, FarthestCorner) {
  const Rect r({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(MaxDistRectPoint(r, {0, 0}), std::sqrt(200.0));
  EXPECT_DOUBLE_EQ(MaxDistRectPoint(r, {-3, -4}), std::hypot(13.0, 14.0));
}

}  // namespace
}  // namespace geom
}  // namespace conn
