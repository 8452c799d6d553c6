// Tests for CPLC (Algorithm 2): control point lists must partition the
// domain, and the distance curve they induce must equal the ground-truth
// obstructed distance at every sample of the query segment.

#include <cmath>

#include <gtest/gtest.h>

#include "core/cpl.h"
#include "core/naive.h"
#include "core/odist.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

ControlPointList CplFor(const testutil::Scene& scene, geom::Vec2 p,
                        const ConnOptions& opts, QueryStats* stats) {
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const geom::Rect domain({-100, -100}, {1100, 1100});
  vis::VisGraph vg(domain, stats);
  const vis::VertexId s = vg.AddFixedVertex(scene.query.a);
  const vis::VertexId e = vg.AddFixedVertex(scene.query.b);
  TreeObstacleSource source(to, scene.query);
  double retrieved = 0.0;
  IncrementalObstacleRetrieval(&source, &vg, {s, e}, p, &retrieved, stats);
  const geom::SegmentFrame frame(scene.query);
  const geom::IntervalSet domain_set{
      geom::Interval(0.0, scene.query.Length())};
  // The returned list is value-only (control point positions + offsets), so
  // the graph and trees may die with this scope.
  return ComputeControlPointList(&vg, p, frame, domain_set, opts, stats);
}

TEST(CplTest, NoObstaclesPointIsItsOwnControlPoint) {
  testutil::Scene scene;
  scene.domain = geom::Rect({0, 0}, {1000, 1000});
  scene.query = geom::Segment({100, 100}, {500, 100});
  const geom::Vec2 p{300, 250};

  QueryStats stats;
  const ControlPointList cpl = CplFor(scene, p, {}, &stats);
  ASSERT_EQ(cpl.size(), 1u);
  EXPECT_TRUE(cpl[0].has_value());
  EXPECT_EQ(cpl[0].cp, p);
  EXPECT_DOUBLE_EQ(cpl[0].offset, 0.0);
  EXPECT_TRUE(CplIsPartition(
      cpl, geom::IntervalSet{geom::Interval(0, scene.query.Length())}));
}

TEST(CplTest, WallCreatesCornerControlPoints) {
  testutil::Scene scene;
  scene.domain = geom::Rect({0, 0}, {1000, 1000});
  scene.query = geom::Segment({100, 100}, {500, 100});
  // Wall between p and the middle of q.
  scene.obstacles.push_back(geom::Rect({250, 150}, {350, 250}));
  const geom::Vec2 p{300, 300};

  QueryStats stats;
  const ControlPointList cpl = CplFor(scene, p, {}, &stats);
  EXPECT_GE(cpl.size(), 3u);  // around-left / shadow pieces / around-right
  // Every entry must have a control point (whole q is reachable from p).
  for (const CplEntry& e : cpl) {
    EXPECT_TRUE(e.has_value());
  }
  // Shadowed center: control point is one of the wall's lower corners.
  const geom::SegmentFrame frame(scene.query);
  bool saw_corner_cp = false;
  for (const CplEntry& e : cpl) {
    if ((e.cp == geom::Vec2{250, 150}) || (e.cp == geom::Vec2{350, 150})) {
      saw_corner_cp = true;
      EXPECT_GT(e.offset, 0.0);
    }
  }
  EXPECT_TRUE(saw_corner_cp);
}

class CplVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CplVsOracle, CurveEqualsGroundTruthOdist) {
  const testutil::Scene scene = testutil::MakeScene(GetParam(), 6, 18);
  if (scene.query.Length() < 1.0) return;
  const NaiveOracle oracle({}, scene.obstacles);
  const geom::SegmentFrame frame(scene.query);

  QueryStats stats;
  for (size_t pi = 0; pi < std::min<size_t>(scene.points.size(), 4); ++pi) {
    const geom::Vec2 p = scene.points[pi];
    const ControlPointList cpl = CplFor(scene, p, {}, &stats);
    ASSERT_TRUE(CplIsPartition(
        cpl, geom::IntervalSet{geom::Interval(0, scene.query.Length())}));

    for (int i = 0; i <= 100; ++i) {
      const double t = scene.query.Length() * i / 100.0;
      // Locate the covering entry.
      const CplEntry* entry = nullptr;
      for (const CplEntry& e : cpl) {
        if (e.range.ContainsApprox(t)) {
          entry = &e;
          break;
        }
      }
      ASSERT_NE(entry, nullptr) << "t=" << t;
      const double want = oracle.Odist(p, scene.query.At(t));
      if (!entry->has_value()) {
        // Unreachable from p (or a boundary sliver).
        if (std::isinf(want)) continue;
        // Tolerate eps-boundary mismatches only.
        ADD_FAILURE_AT(__FILE__, __LINE__)
            << "missing control point at reachable t=" << t;
        continue;
      }
      const double got = entry->Curve(frame).Eval(t);
      EXPECT_NEAR(got, want, 1e-5 * (1 + want))
          << "seed=" << GetParam() << " point " << pi << " t=" << t;
    }
  }
}

TEST_P(CplVsOracle, Lemma6AndLemma7DoNotChangeTheResult) {
  const testutil::Scene scene =
      testutil::MakeScene(GetParam() ^ 0xC0FFEE, 5, 15);
  if (scene.query.Length() < 1.0) return;
  const geom::SegmentFrame frame(scene.query);

  ConnOptions all_on;
  ConnOptions pruning_off;
  pruning_off.use_lemma6_refine = false;
  pruning_off.use_lemma7_terminate = false;
  pruning_off.use_lemma1_prune = false;

  QueryStats s1, s2;
  for (size_t pi = 0; pi < std::min<size_t>(scene.points.size(), 3); ++pi) {
    const geom::Vec2 p = scene.points[pi];
    const ControlPointList a = CplFor(scene, p, all_on, &s1);
    const ControlPointList b = CplFor(scene, p, pruning_off, &s2);
    // The *functions* must agree even if the partitions differ.
    for (int i = 0; i <= 60; ++i) {
      const double t = scene.query.Length() * (i + 0.5) / 61.0;
      auto value = [&](const ControlPointList& cpl) {
        for (const CplEntry& e : cpl) {
          if (e.range.ContainsApprox(t)) {
            return e.has_value() ? e.Curve(frame).Eval(t)
                            : std::numeric_limits<double>::infinity();
          }
        }
        return std::numeric_limits<double>::infinity();
      };
      const double va = value(a), vb = value(b);
      if (std::isinf(va) || std::isinf(vb)) {
        EXPECT_EQ(std::isinf(va), std::isinf(vb)) << "t=" << t;
      } else {
        EXPECT_NEAR(va, vb, 1e-6 * (1 + vb)) << "t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CplVsOracle, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace core
}  // namespace conn
