// Micro-benchmarks of the geometry kernel: the split-point quadratic, curve
// crossings, visible regions, interval algebra, and the blocking predicate.
// These are the inner loops of CPLC/RLU; regressions here hit every query.

#include <algorithm>
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "geom/curve.h"
#include "geom/interval_set.h"
#include "geom/predicates.h"
#include "geom/quadratic.h"
#include "geom/split.h"
#include "vis/obstacle_set.h"
#include "vis/visible_region.h"

namespace conn {
namespace {

void BM_SolveQuadratic(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::array<double, 3>> coeffs(1024);
  for (auto& c : coeffs) {
    c = {rng.Uniform(-10, 10), rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
  }
  size_t i = 0;
  for (auto _ : state) {
    double roots[2];
    const auto& c = coeffs[i++ & 1023];
    benchmark::DoNotOptimize(geom::SolveQuadratic(c[0], c[1], c[2], roots));
  }
}
BENCHMARK(BM_SolveQuadratic);

// A contested piece as the engine meets it: two curves over a short stretch
// of the segment (1e-4 to 1e-1 of its length), so most roots of the
// squared crossing equation lie outside the piece.  Over the whole segment
// nearly every root would be inside, and the solver's work on the others
// would not show.
struct ContestCase {
  geom::DistanceCurve a, b;
  geom::Interval domain;
};

std::vector<ContestCase> ContestCases(uint64_t seed) {
  Rng rng(seed);
  const double len = 1000.0;
  const geom::SegmentFrame frame(geom::Segment({0, 0}, {len, 0}));
  std::vector<ContestCase> cases;
  for (int i = 0; i < 1024; ++i) {
    ContestCase c;
    c.a = geom::DistanceCurve::FromControlPoint(
        frame, {rng.Uniform(0, len), rng.Uniform(0, 300)},
        rng.Uniform(0, 400));
    c.b = geom::DistanceCurve::FromControlPoint(
        frame, {rng.Uniform(0, len), rng.Uniform(0, 300)},
        rng.Uniform(0, 400));
    const double piece = len * std::pow(10.0, rng.Uniform(-4, -1));
    // The engine contests pieces where a challenger meets the holder:
    // centre the piece on the first grid cell where a - b changes sign,
    // which the piece may or may not reach.
    double centre = rng.Uniform(0, len);
    double prev = c.a.Eval(0) - c.b.Eval(0);
    for (int k = 1; k <= 64; ++k) {
      const double t = len * k / 64;
      const double cur = c.a.Eval(t) - c.b.Eval(t);
      if (prev * cur < 0) {
        centre = t - len / 128;
        break;
      }
      prev = cur;
    }
    const double lo = std::clamp(centre - piece / 2, 0.0, len - piece);
    c.domain = geom::Interval(lo, lo + piece);
    cases.push_back(c);
  }
  return cases;
}

// `crossings` (crossings summed over the 1024 cases, computed before the
// timed loop) is deterministic, so the baseline compare gates the
// solver's answers.
void BM_CurveCrossings(benchmark::State& state) {
  const std::vector<ContestCase> cases = ContestCases(2);
  double crossings = 0;
  for (const ContestCase& c : cases) {
    crossings += geom::CurveCrossings(c.a, c.b, c.domain).size();
  }
  size_t i = 0;
  for (auto _ : state) {
    const ContestCase& c = cases[i++ & 1023];
    benchmark::DoNotOptimize(geom::CurveCrossings(c.a, c.b, c.domain));
  }
  state.counters["crossings"] = crossings;
}
BENCHMARK(BM_CurveCrossings);

// `crossings` counts winner changes (pieces - 1) over the 1024 cases.
void BM_CompareCurves(benchmark::State& state) {
  const std::vector<ContestCase> cases = ContestCases(3);
  double crossings = 0;
  for (const ContestCase& c : cases) {
    crossings += geom::CompareCurves(c.a, c.b, c.domain).size() - 1;
  }
  size_t i = 0;
  for (auto _ : state) {
    const ContestCase& c = cases[i++ & 1023];
    benchmark::DoNotOptimize(geom::CompareCurves(c.a, c.b, c.domain));
  }
  state.counters["crossings"] = crossings;
}
BENCHMARK(BM_CompareCurves);

void BM_SegmentCrossesInterior(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::pair<geom::Segment, geom::Rect>> cases;
  for (int i = 0; i < 1024; ++i) {
    const geom::Vec2 lo{rng.Uniform(0, 900), rng.Uniform(0, 900)};
    cases.emplace_back(
        geom::Segment({rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                      {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}),
        geom::Rect(
            lo, {lo.x + rng.Uniform(5, 100), lo.y + rng.Uniform(5, 100)}));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [s, r] = cases[i++ & 1023];
    benchmark::DoNotOptimize(geom::SegmentCrossesInterior(s, r));
  }
}
BENCHMARK(BM_SegmentCrossesInterior);

void BM_VisibleRegion(benchmark::State& state) {
  Rng rng(5);
  vis::ObstacleSet set(geom::Rect({0, 0}, {1000, 1000}), 32);
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    const geom::Vec2 lo{rng.Uniform(0, 950), rng.Uniform(0, 950)};
    set.Add(
        geom::Rect(lo, {lo.x + rng.Uniform(5, 50), lo.y + rng.Uniform(5, 50)}),
        i);
  }
  const geom::SegmentFrame frame(geom::Segment({100, 100}, {900, 500}));
  std::vector<geom::Vec2> viewpoints(256);
  for (auto& v : viewpoints) {
    v = {rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vis::VisibleRegion(set, viewpoints[i++ & 255], frame));
  }
}
BENCHMARK(BM_VisibleRegion)->Arg(16)->Arg(64)->Arg(256);

void BM_IntervalSetSubtract(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::pair<geom::IntervalSet, geom::IntervalSet>> cases;
  for (int c = 0; c < 256; ++c) {
    std::vector<geom::Interval> a, b;
    for (int i = 0; i < 12; ++i) {
      const double lo = rng.Uniform(0, 900);
      a.push_back(geom::Interval(lo, lo + rng.Uniform(1, 50)));
      const double lo2 = rng.Uniform(0, 900);
      b.push_back(geom::Interval(lo2, lo2 + rng.Uniform(1, 50)));
    }
    cases.emplace_back(geom::IntervalSet(std::move(a)),
                       geom::IntervalSet(std::move(b)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = cases[i++ & 255];
    benchmark::DoNotOptimize(a.Subtract(b));
  }
}
BENCHMARK(BM_IntervalSetSubtract);

}  // namespace
}  // namespace conn

BENCHMARK_MAIN();
