// Property sweep at the ResultList level (no trees, no visibility): after
// merging any sequence of control point lists, the result list must be the
// pointwise minimum of all submitted distance curves — RLU is exactly a
// lower-envelope computation (the paper's Section 3 machinery).

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/result_list.h"

namespace conn {
namespace core {
namespace {

struct Curve {
  int64_t pid;
  geom::Vec2 cp;
  double offset;
};

class ResultListEnvelope : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResultListEnvelope, IsThePointwiseLowerEnvelope) {
  Rng rng(GetParam());
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {1000, 0}));
  ResultList rl(geom::IntervalSet{geom::Interval(0, 1000)});

  std::vector<Curve> curves;
  const int n = 3 + static_cast<int>(rng.UniformU64(12));
  for (int i = 0; i < n; ++i) {
    Curve c{i,
            {rng.Uniform(-100, 1100), rng.Uniform(0, 400)},
            rng.Uniform(0, 300)};
    curves.push_back(c);
    // Each point may arrive as several CPL pieces covering [0, 1000].
    const double cut = rng.Uniform(100, 900);
    CplEntry piece{kThisPoint, c.cp, c.offset, geom::Interval(0, cut)};
    ControlPointList cpl = {piece};
    piece.range = geom::Interval(cut, 1000);
    cpl.push_back(piece);
    rl.Update(c.pid, cpl, frame, nullptr);
  }

  for (int i = 0; i <= 500; ++i) {
    const double t = 1000.0 * i / 500.0;
    double want = std::numeric_limits<double>::infinity();
    for (const Curve& c : curves) {
      want = std::min(
          want, c.offset + geom::Dist(c.cp, frame.PointAt(t)));
    }
    EXPECT_NEAR(rl.OdistAt(t, frame), want, 1e-6 * (1 + want))
        << "seed=" << GetParam() << " t=" << t;
  }

  // The reported owner must achieve the envelope value (ties permitted).
  for (int i = 0; i <= 100; ++i) {
    const double t = 1000.0 * (i + 0.5) / 101.0;
    const int64_t pid = rl.OnnAt(t);
    ASSERT_GE(pid, 0);
    const Curve& c = curves[pid];
    EXPECT_NEAR(c.offset + geom::Dist(c.cp, frame.PointAt(t)),
                rl.OdistAt(t, frame), 1e-6);
  }
}

TEST_P(ResultListEnvelope, UpdateOrderDoesNotMatter) {
  Rng rng(GetParam() ^ 0x0DDE);
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {500, 0}));
  std::vector<Curve> curves;
  for (int i = 0; i < 8; ++i) {
    curves.push_back(Curve{
        i, {rng.Uniform(0, 500), rng.Uniform(5, 200)}, rng.Uniform(0, 150)});
  }
  ResultList forward(geom::IntervalSet{geom::Interval(0, 500)});
  ResultList backward(geom::IntervalSet{geom::Interval(0, 500)});
  for (int i = 0; i < 8; ++i) {
    ControlPointList cpl_f = {CplEntry{kThisPoint, curves[i].cp,
                                       curves[i].offset,
                                       geom::Interval(0, 500)}};
    forward.Update(curves[i].pid, cpl_f, frame, nullptr);
    ControlPointList cpl_b = {CplEntry{kThisPoint, curves[7 - i].cp,
                                       curves[7 - i].offset,
                                       geom::Interval(0, 500)}};
    backward.Update(curves[7 - i].pid, cpl_b, frame, nullptr);
  }
  for (int i = 0; i <= 200; ++i) {
    const double t = 500.0 * i / 200.0;
    EXPECT_NEAR(forward.OdistAt(t, frame), backward.OdistAt(t, frame), 1e-6)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultListEnvelope,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace core
}  // namespace conn
