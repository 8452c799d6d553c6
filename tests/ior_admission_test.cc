// IOR admission: a streamed obstacle enters the visibility graph only when
// mindist(p, o) + mindist(o, s*) <= B* for some reachable piece of q, where
// s* is the point of the piece at which the bound B(s) on the local
// distance from the data point p peaks, and B* = B(s*) (core/odist.h).
// Every scene is checked against core::NaiveOracle, in both tree
// configurations, and the graph's obstacle set is read through a
// QueryWorkspace.  A property test checks that s* minimises the gap.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "core/naive.h"
#include "core/obstructed_join.h"
#include "core/obstructed_range.h"
#include "core/odist.h"
#include "core/onn.h"
#include "core/workspace.h"
#include "geom/distance.h"
#include "test_util.h"

namespace conn {
namespace core {
namespace {

using geom::Rect;
using geom::Segment;
using geom::Vec2;

/// Trees of one scene in the 2-tree or the 1-tree configuration.
struct Trees {
  Trees(const testutil::Scene& scene, bool one_tree)
      : tp(testutil::MakePointTree(scene)),
        to(testutil::MakeObstacleTree(scene)),
        unified(testutil::MakeUnifiedTree(scene)),
        one_tree(one_tree) {}

  const rtree::RStarTree& data() const { return one_tree ? unified : tp; }
  const rtree::RStarTree& obstacles() const {
    return one_tree ? unified : to;
  }

  rtree::RStarTree tp;
  rtree::RStarTree to;
  rtree::RStarTree unified;
  bool one_tree;
};

bool GraphHolds(const vis::VisGraph& vg, rtree::ObjectId id) {
  for (uint32_t i = 0; i < vg.obstacles().size(); ++i) {
    if (vg.obstacles().id(i) == id) return true;
  }
  return false;
}

/// mindist(p, o) + mindist(o, s): the admission key of obstacle \p o in
/// the ellipse with foci p and s, the peak s* of a piece (or its anchor).
double EllipseKey(Vec2 p, const Rect& o, Vec2 s) {
  return geom::MinDistRectPoint(o, p) + geom::MinDistRectPoint(o, s);
}

/// The CONN answer equals the oracle's nearest obstructed distance along q.
void ExpectConnMatchesOracle(const ConnResult& r, const testutil::Scene& s) {
  const NaiveOracle oracle(s.points, s.obstacles);
  for (int i = 0; i <= 100; ++i) {
    const double t = s.query.Length() * i / 100.0;
    const auto truth = oracle.OnnAt(s.query.At(t), 1);
    ASSERT_FALSE(truth.empty()) << "t=" << t;
    EXPECT_NEAR(r.OdistAt(t), truth[0].second, 1e-6) << "t=" << t;
  }
}

class IorAdmission : public ::testing::TestWithParam<bool> {};

// p = (50, 20) above q = [(0, 0), (100, 0)]: d = |pa| = |pb| ≈ 53.85, the
// peak is s* = (50, 0) and B* = d + 50 ≈ 103.85.  Obstacle 0 lies within d
// of q, so IOR streams it, but its ellipse key ≈ 191 exceeds B*: no path
// from p to q can touch it, and it is parked, never inserted.
TEST_P(IorAdmission, ObstacleInsideTheDiskButOutsideEveryEllipseStaysOut) {
  testutil::Scene scene;
  scene.points = {{50, 20}};
  scene.obstacles = {Rect({-50, -30}, {-40, -20})};
  scene.query = Segment({0, 0}, {100, 0});
  const double d = std::hypot(50.0, 20.0);
  ASSERT_LE(geom::MinDistRectSegment(scene.obstacles[0], scene.query), d);
  ASSERT_GT(EllipseKey(scene.points[0], scene.obstacles[0], {50, 0}),
            d + 50.0);

  const Trees trees(scene, GetParam());
  QueryWorkspace ws(&trees.data(), &trees.obstacles(), scene.query.Bounds());
  const ConnResult r =
      ConnQuery(trees.data(), trees.obstacles(), scene.query, {}, &ws);
  EXPECT_EQ(r.stats.points_evaluated, 1u);
  EXPECT_EQ(r.stats.obstacles_evaluated, 0u);
  EXPECT_FALSE(GraphHolds(*ws.graph(), 0));
  ExpectConnMatchesOracle(r, scene);
}

// The wall W hides the middle of q from p, so the middle's obstructed
// distance (≈ 83.2, around W's left end) exceeds d ≈ 53.85, the distance
// to both endpoints.  Obstacle O below q is within d of q and inside the
// middle's ellipse (key 80 <= L(p, mid)), but outside the ellipse of
// length d: the peak bound B* = (d_a + d_b + |ab|) / 2 at s* = (50, 0), not
// d, admits it.  Obstacle F is streamed and parked.
TEST_P(IorAdmission, DetourSceneAdmitsByTheMiddleBoundNotTheEndpoints) {
  testutil::Scene scene;
  scene.points = {{50, 20}};
  const Rect wall({11, 2}, {89, 4});
  const Rect below({40, -40}, {60, -30});
  const Rect far_side({-50, -30}, {-40, -20});
  scene.obstacles = {wall, below, far_side};
  scene.query = Segment({0, 0}, {100, 0});
  const Vec2 p = scene.points[0];

  const NaiveOracle oracle({}, scene.obstacles);
  const double da = oracle.Odist(p, scene.query.a);
  const double db = oracle.Odist(p, scene.query.b);
  const double d = std::max(da, db);
  const double u = 0.5 * (da + db + scene.query.Length());
  const double mid = oracle.Odist(p, {50, 0});
  ASSERT_GT(mid, d + 20.0);  // the middle is farther than both endpoints
  ASSERT_LE(mid, u);
  const Vec2 peak{50, 0};  // d_a = d_b
  const double below_key = EllipseKey(p, below, peak);
  ASSERT_GT(below_key, d + 20.0);
  ASSERT_LE(below_key, mid);
  ASSERT_GT(EllipseKey(p, far_side, peak), u + 20.0);
  for (const Rect& o : scene.obstacles) {
    ASSERT_LE(geom::MinDistRectSegment(o, scene.query), d);  // all streamed
  }

  const Trees trees(scene, GetParam());
  QueryWorkspace ws(&trees.data(), &trees.obstacles(), scene.query.Bounds());
  const ConnResult r =
      ConnQuery(trees.data(), trees.obstacles(), scene.query, {}, &ws);
  EXPECT_EQ(r.stats.obstacles_evaluated, 2u);
  EXPECT_TRUE(GraphHolds(*ws.graph(), 0));
  EXPECT_TRUE(GraphHolds(*ws.graph(), 1));
  EXPECT_FALSE(GraphHolds(*ws.graph(), 2));
  EXPECT_NEAR(r.OdistAt(50.0), mid, 1e-6);
  ExpectConnMatchesOracle(r, scene);
}

// The same p and q: s* = (50, 0) and B* = d + 50 ≈ 103.85.  Obstacle N
// behind the endpoint a is within d of q, so IOR streams it (and farther
// from q than p is, so the 1-tree point stream does not insert it first).
// A bound on the whole segment paired with mindist(o, q) would admit it:
// mindist(p, N) + mindist(N, q) ≈ 96.7 <= B*.  But mindist(N, q) is
// reached at a, where the bound is only d, and at s* the key is ≈ 146.7:
// N lies outside the peak ellipse and stays parked.
TEST_P(IorAdmission, ObstacleNearAnEndpointOutsideThePeakEllipseStaysOut) {
  testutil::Scene scene;
  scene.points = {{50, 20}};
  const Rect near_a({-27, -5}, {-22, 0});
  scene.obstacles = {near_a};
  scene.query = Segment({0, 0}, {100, 0});
  const Vec2 p = scene.points[0];
  const double d = std::hypot(50.0, 20.0);
  const PiecePeak peak = PeakOfPiece(scene.query.a, scene.query.b, d, d);
  ASSERT_EQ(peak.s, Vec2(50, 0));
  ASSERT_NEAR(peak.bound, d + 50.0, 1e-12);
  const double to_q = geom::MinDistRectSegment(near_a, scene.query);
  ASSERT_LE(to_q, d);  // streamed
  ASSERT_GT(to_q, geom::DistPointSegment(p, scene.query));
  ASSERT_LE(geom::MinDistRectPoint(near_a, p) + to_q, peak.bound - 5.0);
  ASSERT_GT(EllipseKey(p, near_a, peak.s), peak.bound + 40.0);

  const Trees trees(scene, GetParam());
  QueryWorkspace ws(&trees.data(), &trees.obstacles(), scene.query.Bounds());
  const ConnResult r =
      ConnQuery(trees.data(), trees.obstacles(), scene.query, {}, &ws);
  EXPECT_EQ(r.stats.points_evaluated, 1u);
  EXPECT_EQ(r.stats.obstacles_evaluated, 0u);
  EXPECT_FALSE(GraphHolds(*ws.graph(), 0));
  ExpectConnMatchesOracle(r, scene);

  const CoknnResult knn =
      CoknnQuery(trees.data(), trees.obstacles(), scene.query, 1);
  EXPECT_EQ(knn.stats.obstacles_evaluated, 0u);
  const NaiveOracle oracle(scene.points, scene.obstacles);
  for (int i = 0; i <= 100; ++i) {
    const double t = scene.query.Length() * i / 100.0;
    EXPECT_NEAR(knn.OdistAt(t, 0), oracle.OnnAt(scene.query.At(t), 1)[0].second,
                1e-6)
        << "t=" << t;
  }
}

// A tick query on a carried workspace admits by the peak ellipses like any
// other query.  Two ticks of one client run on one workspace: q0 as above,
// then q1 = [(20, 0), (120, 0)], with d_a ≈ 36.1, d_b ≈ 72.8,
// s* ≈ (88.4, 0) and B* ≈ 104.4.  Obstacle K above p is inside the first
// tick's ellipse, so it is admitted and carried into the second.  Obstacle
// F is within d of both slices, so both ticks stream it, but its key
// exceeds both peak bounds: it stays parked, and the carried graph never
// holds it.
TEST_P(IorAdmission, CarriedWorkspaceTickQueryParksOutsideEveryEllipse) {
  testutil::Scene scene;
  scene.points = {{50, 20}};
  const Rect kept({48, 25}, {52, 27});
  const Rect far_side({-50, -30}, {-40, -20});
  scene.obstacles = {kept, far_side};
  const Segment ticks[2] = {Segment({0, 0}, {100, 0}),
                            Segment({20, 0}, {120, 0})};
  const Vec2 p = scene.points[0];
  for (const Segment& q : ticks) {
    const double d_a = geom::Dist(p, q.a);
    const double d_b = geom::Dist(p, q.b);
    const PiecePeak peak = PeakOfPiece(q.a, q.b, d_a, d_b);
    ASSERT_LE(geom::MinDistRectSegment(far_side, q), std::max(d_a, d_b));
    ASSERT_GT(EllipseKey(p, far_side, peak.s), peak.bound + 50.0);
  }
  const PiecePeak first = PeakOfPiece(ticks[0].a, ticks[0].b,
                                      geom::Dist(p, ticks[0].a),
                                      geom::Dist(p, ticks[0].b));
  ASSERT_LE(EllipseKey(p, kept, first.s), first.bound);

  const Trees trees(scene, GetParam());
  QueryWorkspace ws(&trees.data(), &trees.obstacles(),
                    Rect({0, 0}, {120, 0}));
  ConnOptions opts;
  opts.use_tick_warm_start = true;
  const NaiveOracle oracle(scene.points, scene.obstacles);
  CoknnResult prior;
  for (size_t tick = 0; tick < 2; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    const Segment& q = ticks[tick];
    const CoknnResult got =
        CoknnQuery(trees.data(), trees.obstacles(), q, 1, opts, &ws,
                   TickWarmStart{tick > 0 ? &prior : nullptr});
    EXPECT_EQ(got.stats.tick_warm_starts, 0u);  // evaluated, not the memo
    EXPECT_EQ(got.stats.points_evaluated, 1u);
    // K enters at the first tick and is carried into the second.
    EXPECT_EQ(got.stats.obstacles_evaluated, tick == 0 ? 1u : 0u);
    EXPECT_TRUE(GraphHolds(*ws.graph(), 0));
    EXPECT_FALSE(GraphHolds(*ws.graph(), 1));
    for (int i = 0; i <= 100; ++i) {
      const double t = q.Length() * i / 100.0;
      const auto truth = oracle.OnnAt(q.At(t), 1);
      ASSERT_FALSE(truth.empty());
      EXPECT_NEAR(got.OdistAt(t, 0), truth[0].second, 1e-6) << "t=" << t;
    }
    prior = got;
  }
}

// The point queries anchor IOR at one target, the query point a: the one
// ellipse has foci p and a and bound d = odist(p, a).  The wall Z blocks
// the straight line from a to the data point (d ≈ 45.2 around it); Y lies
// within d of a but its key ≈ 100 exceeds d, so ONN and range park it.
testutil::Scene AnchorScene() {
  testutil::Scene scene;
  scene.points = {{40, 0}};
  scene.obstacles = {Rect({18, -10}, {22, 10}), Rect({-30, 20}, {-25, 25})};
  scene.query = Segment({0, 0}, {0, 0});
  return scene;
}

TEST_P(IorAdmission, PointQueriesUseTheAnchorBound) {
  const testutil::Scene scene = AnchorScene();
  const Vec2 a = scene.query.a;
  const NaiveOracle oracle({}, scene.obstacles);
  const double d = oracle.Odist(a, scene.points[0]);
  ASSERT_LE(geom::MinDistRectPoint(scene.obstacles[1], a), d);
  ASSERT_GT(EllipseKey(scene.points[0], scene.obstacles[1], a), d);

  const Trees trees(scene, GetParam());
  const OnnResult onn = OnnQuery(trees.data(), trees.obstacles(), a, 1);
  ASSERT_EQ(onn.neighbors.size(), 1u);
  EXPECT_NEAR(onn.neighbors[0].odist, d, 1e-9);
  EXPECT_EQ(onn.stats.obstacles_evaluated, 1u);

  const ObstructedRangeResult range =
      ObstructedRangeQuery(trees.data(), trees.obstacles(), a, 50.0);
  ASSERT_EQ(range.members.size(), 1u);
  EXPECT_NEAR(range.members[0].odist, d, 1e-9);
  EXPECT_EQ(range.stats.obstacles_evaluated, 1u);

  // The zero-length CONN is the ONN with k = 1.
  const ConnResult conn =
      ConnQuery(trees.data(), trees.obstacles(), scene.query);
  ASSERT_EQ(conn.tuples.size(), 1u);
  EXPECT_NEAR(conn.tuples[0].offset, d, 1e-9);
  EXPECT_EQ(conn.stats.obstacles_evaluated, 1u);
}

INSTANTIATE_TEST_SUITE_P(Configs, IorAdmission, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "OneTree"
                                                         : "TwoTrees");
                         });

// The joins run the same anchored IOR around each left point (2-tree only).
TEST(IorAdmissionJoin, JoinUsesTheAnchorBound) {
  const testutil::Scene scene = AnchorScene();
  const rtree::RStarTree tree_a = testutil::MakePointTree(
      testutil::Scene{{}, {scene.query.a}, {}, scene.query});
  const rtree::RStarTree tree_b = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  const double d =
      NaiveOracle({}, scene.obstacles).Odist(scene.query.a, scene.points[0]);

  const JoinResult join = ObstructedEDistanceJoin(tree_a, tree_b, to, 50.0);
  ASSERT_EQ(join.pairs.size(), 1u);
  EXPECT_NEAR(join.pairs[0].odist, d, 1e-9);
  EXPECT_EQ(join.stats.obstacles_evaluated, 1u);

  const JoinResult closest = ObstructedClosestPairs(tree_a, tree_b, to, 1);
  ASSERT_EQ(closest.pairs.size(), 1u);
  EXPECT_NEAR(closest.pairs[0].odist, d, 1e-9);
  EXPECT_EQ(closest.stats.obstacles_evaluated, 1u);
}

// The lemma behind the peak ellipses (core/odist.h): along a piece [a, b]
// with endpoint local distances d_a and d_b, |d_a - d_b| <= |ab|, the gap
// mindist(p, o) + mindist(o, s) - min(d_a + |as|, d_b + |sb|) is smallest
// at s*.  Random rectangles, data points and pieces, with d_b at either
// extreme the triangle inequality allows, and zero-length pieces; s is
// sampled densely along the piece.
TEST(PiecePeakProperty, PeakMinimisesTheAdmissionGap) {
  Rng rng(0x5EA4);
  constexpr int kSamples = 400;
  for (int trial = 0; trial < 20000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto point = [&] {
      return Vec2(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
    };
    const Vec2 a = point();
    const Vec2 b = trial % 10 == 0 ? a : point();
    const Vec2 p = point();
    const Vec2 lo = point();
    const double w = trial % 7 == 0 ? 0.0 : rng.Uniform(0, 300);
    const double h = rng.Uniform(0, 300);
    const Rect o(lo, {lo.x + w, lo.y + h});
    const double len = geom::Dist(a, b);
    const double d_a = geom::Dist(p, a) + rng.Uniform(0, 500);
    double d_b = 0.0;
    switch (trial % 3) {
      case 0:
        d_b = d_a + len;  // b is reached through a
        break;
      case 1:
        d_b = d_a - len;  // a is reached through b
        break;
      default:
        d_b = rng.Uniform(d_a - len, d_a + len);
    }

    const PiecePeak peak = PeakOfPiece(a, b, d_a, d_b);
    const double to_p = geom::MinDistRectPoint(o, p);
    const double peak_gap =
        to_p + geom::MinDistRectPoint(o, peak.s) - peak.bound;
    for (int i = 0; i <= kSamples; ++i) {
      const double t = len * i / kSamples;
      const Vec2 s = len > 0.0 ? a + (b - a) * (t / len) : a;
      const double bound = std::min(d_a + t, d_b + (len - t));
      const double gap = to_p + geom::MinDistRectPoint(o, s) - bound;
      ASSERT_GE(gap, peak_gap - 1e-9) << "t=" << t << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace conn
