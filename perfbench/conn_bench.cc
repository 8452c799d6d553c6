// conn_bench — the end-to-end benchmark of the CONN/COkNN engine.
//
//   conn_bench --workload ul_single|fleet_ticks|scatter_ticks --seed N
//              --seconds S --trace 0|1 [--spans FILE] [--smoke]
//
// Builds the fixed UL dataset, generates the workload from --seed, runs it
// closed loop from one process for --seconds and prints every metric as
// `name value unit`.  The last line of stdout is one JSON record with
// `correct`, `attempted`, `failed`, `metrics` and the build stamp.
//
// --trace 0 measures the end-to-end metrics.  --trace 1 is the separate
// per-layer run: every layer is measured from outside the engine, by timing
// calls into public functions (replay.h) and reading public counters.
// --spans FILE additionally writes the traced spans.  --smoke shrinks
// set-up and warm-up for the CTest smoke run.  perfbench/README.md
// documents the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/coknn.h"
#include "core/options.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "exec/subscription.h"
#include "geom/segment.h"
#include "replay.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "vis/obstacle_set.h"

namespace conn {
namespace perfbench {
namespace {

// UL at scale 0.05 (uniform P, LA-like street rectangles O) with the
// dataset seed formula of bench/bench_common.cc, so the trees are the ones
// the figure harnesses measure.  CL, the paper's default, is left out: its
// queries are about 10x slower, too slow for a repeatable run.
constexpr double kScale = 0.05;
constexpr size_t kPoints =
    static_cast<size_t>(datagen::kCaCardinality * kScale);
constexpr size_t kObstacles =
    static_cast<size_t>(datagen::kLaCardinality * kScale);
constexpr uint64_t kDatasetSeed = 0xC0DE + kPoints * 31 + kObstacles * 7;

// Query shape: the paper's defaults (Table 2).
constexpr size_t kK = 5;
constexpr double kQlPercent = 4.5;

// Set-up runs this many times per run; setup_s is the median.
constexpr size_t kSetupRepeats = 5;

// ul_single: unmeasured warm-up queries, and every kCheckEvery-th query is
// re-run on the paper-literal reference path.
constexpr size_t kWarmupQueries = 20;
constexpr size_t kCheckEvery = 10;

// Tick workloads.  reshard_period is the service default; finished routes
// are replaced on the same schedule, so membership and periodic reshards
// coincide and the benchmark knows which ticks reshard.
constexpr uint64_t kReshardPeriod = 8;
constexpr size_t kTickThreads = 4;
constexpr double kTickBufferFraction = 0.10;
constexpr uint64_t kCheckTickEvery = 8;
constexpr size_t kCheckClients = 4;

// Fleet routes: datagen::MakeFleetRoutes' shape with half its default leg
// length, which keeps a depot's clients within one shard's locality guard.
constexpr size_t kWaypoints = 4;
constexpr double kLegLength = 200.0;
constexpr double kDepotRadius = 400.0;
constexpr double kBaseSpeed = 64.0;

// Rejection-sampling budget before the generator gives up.
constexpr uint64_t kMaxAttempts = 100000;

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a ^ (b * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL));
  return rng.NextU64();
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Linear interpolation between order statistics (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// --- flags ------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool smoke = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: conn_bench --workload ul_single|fleet_ticks|"
               "scatter_ticks --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--smoke]\n");
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      f->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      f->workload = val;
    } else if (arg == "--seed") {
      f->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      f->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(f->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      f->trace = val == "1";
    } else if (arg == "--spans") {
      f->spans_path = val;
    } else {
      return false;
    }
  }
  return f->workload == "ul_single" || f->workload == "fleet_ticks" ||
         f->workload == "scatter_ticks";
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every metric a run measured, in print order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    CONN_CHECK_MSG(std::isfinite(value), name.c_str());
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// What a run attempted and how much of it failed its correctness check.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t replay_mismatches = 0;
};

// --- dataset and workload generation ----------------------------------------

std::unique_ptr<rtree::RStarTree> BulkLoad(
    std::vector<rtree::DataObject> objects) {
  return std::make_unique<rtree::RStarTree>(
      rtree::StrBulkLoad(std::move(objects)).value());
}

struct Dataset {
  datagen::DatasetPair pair;
  std::unique_ptr<rtree::RStarTree> tp;  ///< data points P
  std::unique_ptr<rtree::RStarTree> to;  ///< obstacles O
};

Dataset BuildDataset() {
  Dataset ds;
  ds.pair = datagen::MakeDatasetPair(datagen::PointDistribution::kUniform,
                                     kPoints, kObstacles, kDatasetSeed);
  ds.tp = BulkLoad(datagen::ToPointObjects(ds.pair.points));
  ds.to = BulkLoad(datagen::ToObstacleObjects(ds.pair.obstacles));
  return ds;
}

/// Every query segment and route leg must cross no obstacle interior:
/// a segment that does can pull in the whole obstacle set (one such query
/// took 261 s against a 20-280 ms norm), which makes run time unbounded.
/// This is the criterion of WorkloadOptions::avoid_obstacle_crossings,
/// checked against one grid for the whole run and counted.
class ClearPaths {
 public:
  explicit ClearPaths(const std::vector<geom::Rect>& obstacles)
      : set_(datagen::Workspace(), /*grid_cells_per_side=*/128) {
    for (size_t i = 0; i < obstacles.size(); ++i) set_.Add(obstacles[i], i);
  }

  bool Clear(const geom::Segment& s) const {
    return set_.BlockedIntervalsOnSegment(s).TotalLength() <= 0.0;
  }
  bool Free(geom::Vec2 p) const { return !set_.PointInAnyInterior(p); }

 private:
  vis::ObstacleSet set_;
};

/// Roberts' additive recurrence (the R_d sequence) with a seed-derived
/// random shift: point i lies in [0,1)^d, and every prefix of the sequence
/// covers the unit cube evenly.  Query starts, depot sites and dispersed
/// route origins come from it rather than from independent uniforms, so a
/// run's averages depend on the seed only through a shift: a run covers the
/// workspace the same way whatever its seed, and measures the engine rather
/// than how the seed happened to place its traffic.
class QuasiRandom {
 public:
  QuasiRandom(size_t dims, uint64_t seed) {
    // phi_d, the positive root of x^(d+1) = x + 1.
    double phi = 2.0;
    for (int it = 0; it < 64; ++it) {
      phi = std::pow(1.0 + phi, 1.0 / static_cast<double>(dims + 1));
    }
    Rng rng(seed);
    double a = 1.0;
    for (size_t d = 0; d < dims; ++d) {
      a /= phi;
      alpha_.push_back(a);
      shift_.push_back(rng.NextDouble());
    }
  }

  /// Coordinate \p d of point \p i.
  double At(uint64_t i, size_t d) const {
    const double v = shift_[d] + alpha_[d] * static_cast<double>(i + 1);
    return v - std::floor(v);
  }

 private:
  std::vector<double> alpha_;
  std::vector<double> shift_;
};

/// ul_single's query segments: ql% long, quasi-random start and
/// orientation, kept only if the segment stays in the workspace (as
/// datagen::RandomQuerySegment requires) and crosses no obstacle.
class QuerySampler {
 public:
  QuerySampler(const ClearPaths* paths, uint64_t seed)
      : paths_(paths), qr_(3, seed) {}

  geom::Segment Next() {
    const geom::Rect w = datagen::Workspace();
    const double len = datagen::QueryLengthFromPercent(kQlPercent);
    for (uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const uint64_t i = candidates_++;
      const geom::Vec2 a{w.lo.x + w.Width() * qr_.At(i, 0),
                         w.lo.y + w.Height() * qr_.At(i, 1)};
      const double theta = 2.0 * std::numbers::pi * qr_.At(i, 2);
      const geom::Segment s(
          a, {a.x + len * std::cos(theta), a.y + len * std::sin(theta)});
      if (w.Contains(s.b) && paths_->Clear(s)) return s;
      ++rejected_;
    }
    CONN_CHECK_MSG(false, "no obstacle-free query segment found");
    return {};
  }

  uint64_t rejected() const { return rejected_; }

 private:
  const ClearPaths* paths_;
  QuasiRandom qr_;
  uint64_t candidates_ = 0;
  uint64_t rejected_ = 0;
};

geom::Vec2 ClampIntoWorkspace(geom::Vec2 p) {
  const geom::Rect w = datagen::Workspace();
  return {std::clamp(p.x, w.lo.x, w.hi.x), std::clamp(p.y, w.lo.y, w.hi.y)};
}

/// Cumulative arc length at each waypoint.
std::vector<double> ArcAt(const exec::RouteSpec& route) {
  std::vector<double> cum{0.0};
  for (size_t i = 1; i < route.waypoints.size(); ++i) {
    cum.push_back(cum.back() +
                  Dist(route.waypoints[i - 1], route.waypoints[i]));
  }
  return cum;
}

/// The point at arc length \p s, computed as exec::SubscriptionService
/// does, so the tick segments checked here are the ones it evaluates.
geom::Vec2 PointAtArc(const exec::RouteSpec& route,
                      const std::vector<double>& cum, double s) {
  if (s <= 0.0) return route.waypoints.front();
  if (s >= cum.back()) return route.waypoints.back();
  const size_t leg = static_cast<size_t>(
      std::upper_bound(cum.begin(), cum.end(), s) - cum.begin());
  const geom::Vec2 a = route.waypoints[leg - 1];
  const geom::Vec2 b = route.waypoints[leg];
  const double t = (s - cum[leg - 1]) / (cum[leg] - cum[leg - 1]);
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

/// Ticks until the route's segment stops moving: the first n with
/// n * speed >= route length.
uint64_t TicksToFinish(const exec::RouteSpec& route) {
  const double total = ArcAt(route).back();
  uint64_t n = 0;
  while (static_cast<double>(n) * route.speed < total) ++n;
  return n;
}

enum class FleetShape { kClustered, kUniform };

/// Random-walk routes whose legs, and every tick segment the service will
/// cut from them (a tick can span a waypoint), cross no obstacle.  Route i
/// depends only on (seed, i), so replacements are reproducible however many
/// ticks a run reaches.  Routes start within kDepotRadius of a depot when
/// depots are given, anywhere otherwise.
class RouteGenerator {
 public:
  RouteGenerator(const ClearPaths* paths, std::vector<geom::Vec2> depots,
                 uint64_t seed)
      : paths_(paths), depots_(std::move(depots)), seed_(seed) {}

  /// Route \p index; it starts at depot \p slot mod the depot count, or
  /// first tries \p origin when one is given.  Its speed is the dyadic
  /// speed of datagen::FleetOptions (1/2, 1 or 2 x the base speed), picked
  /// by slot rather than drawn: a tick segment's length sets much of its
  /// query's cost, so every fleet gets the same mix.
  exec::RouteSpec Make(uint64_t index, size_t slot,
                       std::optional<geom::Vec2> origin = std::nullopt) {
    Rng rng(Mix(seed_, index + 1));
    for (uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const geom::Vec2 start =
          attempt == 0 && origin.has_value() ? *origin : Start(&rng, slot);
      std::optional<exec::RouteSpec> route = Attempt(
          &rng, start, std::ldexp(kBaseSpeed, static_cast<int>(slot % 3) - 1));
      if (route.has_value()) return std::move(*route);
      ++rejected_;
    }
    CONN_CHECK_MSG(false, "no obstacle-free route found");
    return {};
  }

  uint64_t rejected() const { return rejected_; }

 private:
  // Leg resamples before the whole route is redrawn (a start boxed in by
  // obstacles has no clear leg).
  static constexpr int kMaxLegAttempts = 1000;

  geom::Vec2 Start(Rng* rng, size_t slot) const {
    const geom::Rect w = datagen::Workspace();
    if (depots_.empty()) {
      return {rng->Uniform(w.lo.x, w.hi.x), rng->Uniform(w.lo.y, w.hi.y)};
    }
    const geom::Vec2 depot = depots_[slot % depots_.size()];
    const double angle = rng->Uniform(0.0, 2.0 * std::numbers::pi);
    const double radius = kDepotRadius * std::sqrt(rng->NextDouble());
    return ClampIntoWorkspace({depot.x + radius * std::cos(angle),
                               depot.y + radius * std::sin(angle)});
  }

  std::optional<exec::RouteSpec> Attempt(Rng* rng, geom::Vec2 start,
                                         double speed) {
    exec::RouteSpec route;
    route.speed = speed;
    geom::Vec2 pos = start;
    if (!paths_->Free(pos)) return std::nullopt;
    route.waypoints.push_back(pos);
    int leg_attempts = 0;
    while (route.waypoints.size() < kWaypoints) {
      if (++leg_attempts > kMaxLegAttempts) return std::nullopt;
      const double angle = rng->Uniform(0.0, 2.0 * std::numbers::pi);
      const double len = kLegLength * rng->Uniform(0.5, 1.5);
      const geom::Vec2 next = ClampIntoWorkspace(
          {pos.x + len * std::cos(angle), pos.y + len * std::sin(angle)});
      if (Dist(pos, next) <= 0.0 || !paths_->Clear({pos, next})) {
        ++rejected_;  // resample this leg
        continue;
      }
      route.waypoints.push_back(next);
      pos = next;
    }
    if (!TickSegmentsClear(route)) return std::nullopt;
    return route;
  }

  bool TickSegmentsClear(const exec::RouteSpec& route) const {
    const std::vector<double> cum = ArcAt(route);
    const double total = cum.back();
    for (uint64_t n = 0;; ++n) {
      const double s0 = std::min(static_cast<double>(n) * route.speed, total);
      const double s1 = std::min(s0 + route.speed, total);
      if (s1 > s0 && !paths_->Clear({PointAtArc(route, cum, s0),
                                     PointAtArc(route, cum, s1)})) {
        return false;
      }
      if (s1 >= total) return true;
    }
  }

  const ClearPaths* paths_;
  std::vector<geom::Vec2> depots_;
  uint64_t seed_;
  uint64_t rejected_ = 0;
};

// --- shared measurement helpers --------------------------------------------

/// Pager counters of both trees, read around a measured call.
struct PagerCounts {
  uint64_t faults = 0;
  uint64_t hits = 0;
  uint64_t device_reads = 0;

  static PagerCounts Read(const Dataset& ds) {
    PagerCounts c;
    for (const rtree::RStarTree* t : {ds.tp.get(), ds.to.get()}) {
      c.faults += t->pager().faults();
      c.hits += t->pager().hits();
      c.device_reads += t->pager().file().device_reads();
    }
    return c;
  }

  PagerCounts operator-(const PagerCounts& o) const {
    return {faults - o.faults, hits - o.hits, device_reads - o.device_reads};
  }
  PagerCounts& operator+=(const PagerCounts& o) {
    faults += o.faults;
    hits += o.hits;
    device_reads += o.device_reads;
    return *this;
  }
};

/// Span log and timing pairs of the traced replays.
struct TraceState {
  SpanLog log;
  StreamCounts counts;
  uint32_t replays = 0;
  double untraced_s = 0.0;  ///< core::CoknnQuery on the replayed segments
  double traced_s = 0.0;    ///< TracedCoknnQuery on the same segments
};

/// Runs \p q through core::CoknnQuery and the traced replay on the same
/// trees, alternating which goes first, and checks that the replay is
/// still the engine's loop.  Returns the engine's answer.
core::CoknnResult TraceOne(const rtree::RStarTree& tp,
                           const rtree::RStarTree& to, const geom::Segment& q,
                           TraceState* trace, Outcome* out) {
  core::CoknnResult engine;
  core::CoknnResult replay;
  auto run_engine = [&] {
    Timer t;
    engine = core::CoknnQuery(tp, to, q, kK);
    trace->untraced_s += t.ElapsedSeconds();
  };
  auto run_replay = [&] {
    Timer t;
    replay = TracedCoknnQuery(tp, to, q, kK, {}, trace->replays,
                              &trace->log, &trace->counts);
    trace->traced_s += t.ElapsedSeconds();
  };
  if (trace->replays % 2 == 0) {
    run_engine();
    run_replay();
  } else {
    run_replay();
    run_engine();
  }
  ++trace->replays;
  if (!SameAnswer(engine, replay) ||
      !SameCounters(engine.stats, replay.stats)) {
    ++out->replay_mismatches;
  }
  return engine;
}

/// Per-layer metrics of the span-timed layers, per replayed query.
void AddSpanMetrics(const TraceState& trace, Report* rep) {
  CONN_CHECK_MSG(trace.replays > 0, "the traced run replayed no query");
  const std::array<double, kLayerCount> self = trace.log.SelfSeconds();
  double total = 0.0;
  for (double s : self) total += s;
  const double n = trace.replays;
  auto at = [&](Layer l) { return self[static_cast<size_t>(l)]; };
  auto add_time = [&](const std::string& name, double seconds) {
    rep->Add(name, seconds / n, "s");
    rep->Add(name.substr(0, name.size() - 2) + "_share",
             Ratio(seconds, total), "fraction");
  };
  add_time("rtree.point_stream_s", at(Layer::kPointStream));
  add_time("rtree.obstacle_stream_s", at(Layer::kObstaclePull));
  rep->Add("rtree.obstacle_pulls", trace.counts.pulls / n, "count/query");
  rep->Add("rtree.obstacles_streamed", trace.counts.streamed / n,
           "count/query");
  add_time("vis.add_obstacle_s", at(Layer::kAddObstacle));
  rep->Add("vis.add_obstacle_us_per_obstacle",
           Ratio(at(Layer::kAddObstacle) * 1e6,
                 static_cast<double>(trace.log.Count(Layer::kAddObstacle))),
           "us");
  add_time("vis.scan_s", at(Layer::kIor));
  add_time("core.ior_s", trace.log.TotalSeconds(Layer::kIor));
  add_time("core.cplc_s", at(Layer::kCplc));
  add_time("core.merge_s", at(Layer::kMerge));
  add_time("core.query_setup_s", at(Layer::kQuerySetup));
  rep->Add("core.unattributed_share", Ratio(at(Layer::kQuery), total),
           "fraction");
  rep->Add("core.trace_overhead",
           Ratio(trace.traced_s, trace.untraced_s) - 1.0, "fraction");
  rep->Add("trace.replayed_queries", n, "count");
}

/// Per-op work counters of the vis and core layers, from QueryStats.
void AddCounterMetrics(const QueryStats& t, double ops, Report* rep) {
  auto per_op = [&](const char* name, uint64_t v) {
    rep->Add(name, Ratio(static_cast<double>(v), ops), "count/op");
  };
  per_op("vis.noe", t.obstacles_evaluated);
  per_op("vis.svg", t.vis_graph_vertices);
  per_op("vis.vis_tests", t.visibility_tests);
  per_op("vis.seed_tests", t.seed_tests);
  per_op("vis.settled", t.dijkstra_settled);
  per_op("vis.warm_restarts", t.scan_warm_restarts);
  per_op("core.npe", t.points_evaluated);
  per_op("core.split_evaluations", t.split_evaluations);
  per_op("core.lemma1_prunes", t.lemma1_prunes);
  per_op("core.lemma2_terminations", t.lemma2_terminations);
  per_op("core.lemma7_terminations", t.lemma7_terminations);
  per_op("core.vr_cache_evictions", t.vr_cache_evictions);
  rep->Add("core.carried_frac",
           Ratio(static_cast<double>(t.tuples_carried),
                 static_cast<double>(t.tuples_carried + t.tuples_rescored)),
           "fraction");
  per_op("core.frontier_shares_per_update", t.frontier_shares);
  rep->Add("core.repairs_frac",
           Ratio(static_cast<double>(t.repairs_applied), ops), "fraction");
}

void AddStorageMetrics(const PagerCounts& io, double ops, Report* rep) {
  rep->Add("storage.faults_per_op", Ratio(io.faults, ops), "pages/op");
  rep->Add("storage.hits_per_op", Ratio(io.hits, ops), "pages/op");
  rep->Add("storage.hit_ratio",
           Ratio(io.hits, static_cast<double>(io.hits + io.faults)),
           "fraction");
  rep->Add("storage.device_reads_per_op", Ratio(io.device_reads, ops),
           "pages/op");
}

void AddLatencyMetrics(const std::vector<double>& op_ms, Report* rep) {
  rep->Add("latency_p50_ms", Percentile(op_ms, 0.50), "ms");
  rep->Add("latency_p90_ms", Percentile(op_ms, 0.90), "ms");
  rep->Add("latency_samples", static_cast<double>(op_ms.size()), "count");
}

// --- ul_single ----------------------------------------------------------------
//
// The paper's single-query model: sequential core::CoknnQuery calls on two
// unbuffered trees, k = 5, ql = 4.5%.  Every query builds a fresh
// visibility graph, so vis/core optimisations show here and exec does not
// run at all.

struct UlState {
  Dataset ds;
  std::unique_ptr<ClearPaths> paths;
  std::unique_ptr<QuerySampler> sampler;
  std::vector<geom::Segment> warmup;
  std::vector<geom::Segment> queries;
};

/// \p trace is null for the untraced run.
Outcome RunUlSingle(const Flags& f, TraceState* trace, Report* rep) {
  const size_t warmup_queries = f.smoke ? 2 : kWarmupQueries;
  std::vector<double> setup_s;
  std::unique_ptr<UlState> st;
  for (size_t r = 0; r < (f.smoke ? 1 : kSetupRepeats); ++r) {
    Timer t;
    auto s = std::make_unique<UlState>();
    s->ds = BuildDataset();
    s->paths = std::make_unique<ClearPaths>(s->ds.pair.obstacles);
    QuerySampler warmup(s->paths.get(), Mix(f.seed, 0x3A93));
    for (size_t i = 0; i < warmup_queries; ++i) {
      s->warmup.push_back(warmup.Next());
    }
    // The measured loop is time-bounded; 1024 queries cover it on any
    // machine this benchmark targets, and more are generated (outside the
    // timed calls) if a run needs them.
    s->sampler = std::make_unique<QuerySampler>(s->paths.get(), f.seed);
    for (size_t i = 0; i < 1024; ++i) {
      s->queries.push_back(s->sampler->Next());
    }
    setup_s.push_back(t.ElapsedSeconds());
    st = std::move(s);
  }
  const Dataset& ds = st->ds;
  // The paper-literal reference runs on its own copy of the trees so the
  // checks leave the measured pagers untouched.
  const Dataset ref = BuildDataset();
  core::ConnOptions paper_literal;
  paper_literal.use_warm_scan_restarts = false;

  Timer warm;
  for (const geom::Segment& q : st->warmup) {
    (void)core::CoknnQuery(*ds.tp, *ds.to, q, kK);
  }
  const double warmup_s = warm.ElapsedSeconds();

  Outcome out;
  std::vector<double> op_ms;
  QueryStats totals;
  PagerCounts io;
  double op_wall = 0.0;
  Timer loop;
  for (size_t i = 0; i == 0 || loop.ElapsedSeconds() < f.seconds; ++i) {
    if (i == st->queries.size()) st->queries.push_back(st->sampler->Next());
    const geom::Segment& q = st->queries[i];
    const PagerCounts before = PagerCounts::Read(ds);
    Timer t;
    const core::CoknnResult r = core::CoknnQuery(*ds.tp, *ds.to, q, kK);
    const double wall = t.ElapsedSeconds();
    io += PagerCounts::Read(ds) - before;
    op_ms.push_back(wall * 1e3);
    op_wall += wall;
    totals += r.stats;
    ++out.attempted;

    if (trace != nullptr) TraceOne(*ref.tp, *ref.to, q, trace, &out);
    if (i % kCheckEvery == 0) {
      const core::CoknnResult want =
          core::CoknnQuery(*ref.tp, *ref.to, q, kK, paper_literal);
      if (!SameAnswer(r, want)) ++out.failed;
    }
  }

  const double ops = static_cast<double>(out.attempted);
  rep->Add("setup_s", Median(setup_s), "s");
  rep->Add("throughput_ops", ops / op_wall, "op/s");
  AddLatencyMetrics(op_ms, rep);
  rep->Add("faults_per_op", Ratio(io.faults, ops), "pages/op");
  rep->Add("warmup_s", warmup_s, "s");
  rep->Add("rejected_candidates",
           static_cast<double>(st->sampler->rejected()), "count");

  if (trace != nullptr) {
    AddStorageMetrics(io, ops, rep);
    AddSpanMetrics(*trace, rep);
    AddCounterMetrics(totals, ops, rep);
    // exec never runs here: its per-layer metrics read 0 by definition,
    // except the share of wall time spent inside engine calls.
    rep->Add("exec.in_query_share", Ratio(totals.cpu_seconds, op_wall),
             "fraction");
    rep->Add("exec.reshard_over_steady", 0.0, "ratio");
    rep->Add("exec.shards_per_tick", 0.0, "count");
    rep->Add("exec.carried_shard_frac", 0.0, "fraction");
    rep->Add("exec.workspaces_adopted", 0.0, "count/tick");
    rep->Add("exec.reuse_frac", 0.0, "fraction");
    rep->Add("exec.store_hits_per_update", 0.0, "count/op");
    rep->Add("exec.tick_warm_frac", 0.0, "fraction");
  }
  return out;
}

// --- fleet_ticks / scatter_ticks -----------------------------------------------
//
// An exec::SubscriptionService tick loop, closed loop from this thread.
// An op is one client update; every update of a tick is delivered when the
// tick ends, so an update's latency is its tick's wall time.
//
// A run is a sequence of episodes, each an independent fleet drawn from
// (seed, episode): a fresh service and buffer pool, warm-up ticks, then a
// fixed number of measured ticks.  Carried graphs and the obstacle store
// grow for as long as a service lives, so a fixed episode length keeps a
// tick's cost independent of how many ticks a machine fits into --seconds,
// and averaging over episodes keeps one unlucky fleet from moving a run.

struct TickWorkload {
  FleetShape shape;
  size_t clients;
  uint64_t warmup_ticks;    ///< per episode, unmeasured
  uint64_t measured_ticks;  ///< per episode
};

struct Episode {
  struct Client {
    uint64_t finish_tick = 0;  ///< first tick its segment stops moving
    size_t slot = 0;           ///< fleet position; keeps the depot
  };
  std::unique_ptr<RouteGenerator> routes;
  std::unique_ptr<exec::SubscriptionService> service;
  std::map<int64_t, Client> clients;
  uint64_t next_route = 0;
};

void AddClient(Episode* ep, size_t slot,
               std::optional<geom::Vec2> origin = std::nullopt) {
  const exec::RouteSpec route =
      ep->routes->Make(ep->next_route++, slot, origin);
  const uint64_t finish = ep->service->ticks() + TicksToFinish(route);
  const int64_t id = ep->service->Subscribe(route, kK).value();
  ep->clients[id] = Episode::Client{finish, slot};
}

/// On every reshard tick, clients whose routes have ended are replaced by
/// fresh routes, so the fleet keeps moving for the whole episode.
void ReplaceFinished(Episode* ep) {
  const uint64_t now = ep->service->ticks();
  if (now == 0 || now % kReshardPeriod != 0) return;
  std::vector<int64_t> done;
  for (const auto& [id, c] : ep->clients) {
    if (c.finish_tick <= now) done.push_back(id);
  }
  for (int64_t id : done) {
    const size_t slot = ep->clients.at(id).slot;
    CONN_CHECK(ep->service->Unsubscribe(id).ok());
    ep->clients.erase(id);
    AddClient(ep, slot);
  }
}

/// A 10% 2Q buffer on \p tree; reconfiguring also drops cached pages, so
/// every episode starts cold.
void ConfigureTickBuffer(const rtree::RStarTree& tree) {
  storage::BufferOptions opts = tree.pager().buffer_pool().options();
  opts.capacity_pages = static_cast<size_t>(
      static_cast<double>(tree.PageCount()) * kTickBufferFraction);
  opts.policy = storage::EvictionPolicy::kTwoQueue;
  tree.pager().ConfigureBuffer(opts);
}

/// Episode \p episode of a run.  Its depots (clustered) or its clients'
/// origins (dispersed) are consecutive points of one quasi-random stream
/// per run, so the episodes of a run spread evenly over the workspace.
/// Clustered fleets get one depot in the left and one in the right third
/// of the workspace, each with half the clients (a client's replacement
/// starts at its depot): the STR sharder cuts a fleet into vertical slices
/// first, so every shard then holds one depot's clients and the locality
/// guard lets it share.  A shard spanning both depots would fall back to
/// per-query graphs, scatter_ticks' regime, and as the slowest shard it
/// would set the whole tick's time.
Episode StartEpisode(const Dataset& ds, const ClearPaths* paths,
                     const TickWorkload& w, uint64_t seed, uint64_t episode) {
  const QuasiRandom sites(2, Mix(seed, 0x517E));
  auto site = [&](uint64_t i, double x0, double x1, double y0, double y1) {
    return geom::Vec2{x0 + (x1 - x0) * sites.At(i, 0),
                      y0 + (y1 - y0) * sites.At(i, 1)};
  };
  std::vector<geom::Vec2> depots;
  if (w.shape == FleetShape::kClustered) {
    depots = {site(2 * episode, 1500.0, 3500.0, 1500.0, 8500.0),
              site(2 * episode + 1, 6500.0, 8500.0, 1500.0, 8500.0)};
  }

  ConfigureTickBuffer(*ds.tp);
  ConfigureTickBuffer(*ds.to);
  exec::SubscriptionOptions opts;
  opts.batch.num_threads = kTickThreads;
  opts.batch.query.use_differential_repair = true;
  opts.reshard_period = kReshardPeriod;
  Episode ep;
  ep.routes = std::make_unique<RouteGenerator>(paths, std::move(depots),
                                               Mix(seed, episode));
  ep.service = std::make_unique<exec::SubscriptionService>(*ds.tp, *ds.to,
                                                           opts);
  for (size_t slot = 0; slot < w.clients; ++slot) {
    std::optional<geom::Vec2> origin;
    if (w.shape == FleetShape::kUniform) {
      origin = site(episode * w.clients + slot, 0.0, 10000.0, 0.0, 10000.0);
    }
    AddClient(&ep, slot, origin);
  }
  return ep;
}

/// Checks a seed-derived sample of the tick's answers against independent
/// fresh core::CoknnQuery calls (on the reference trees, so the measured
/// buffer pools are untouched).  In the traced run the same fresh queries
/// also feed the span-timed replay.
void CheckTick(const exec::TickResult& r, const Dataset& ref, uint64_t seed,
               TraceState* trace, Outcome* out) {
  std::vector<const exec::ClientUpdate*> live;
  for (const exec::ClientUpdate& u : r.updates) {
    if (u.result.has_value()) live.push_back(&u);
  }
  Rng rng(seed);
  for (size_t c = 0; c < kCheckClients && c < live.size(); ++c) {
    std::swap(live[c], live[c + rng.UniformU64(live.size() - c)]);
    const exec::ClientUpdate& u = *live[c];
    const core::CoknnResult want =
        trace != nullptr
            ? TraceOne(*ref.tp, *ref.to, u.segment, trace, out)
            : core::CoknnQuery(*ref.tp, *ref.to, u.segment, kK);
    if (!SameAnswer(*u.result, want)) ++out->failed;
  }
}

/// \p trace is null for the untraced run.
Outcome RunTicks(const Flags& f, const TickWorkload& w, TraceState* trace,
                 Report* rep) {
  struct Fixture {
    Dataset ds;
    std::unique_ptr<ClearPaths> paths;
    Episode first;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (size_t r = 0; r < (f.smoke ? 1 : kSetupRepeats); ++r) {
    Timer t;
    auto s = std::make_unique<Fixture>();
    s->ds = BuildDataset();
    s->paths = std::make_unique<ClearPaths>(s->ds.pair.obstacles);
    s->first = StartEpisode(s->ds, s->paths.get(), w, f.seed, 0);
    setup_s.push_back(t.ElapsedSeconds());
    fx = std::move(s);
  }
  const Dataset& ds = fx->ds;
  const Dataset ref = BuildDataset();
  const uint64_t warmup_ticks = f.smoke ? 1 : w.warmup_ticks;

  Outcome out;
  std::vector<double> tick_ms;
  std::vector<double> reshard_ms;
  std::vector<double> steady_ms;
  uint64_t updates = 0;
  uint64_t rejected = 0;
  QueryStats totals;
  PagerCounts io;
  double tick_wall = 0.0;
  double thread_wall = 0.0;  // sum of tick wall x threads used
  double warmup_s = 0.0;
  uint64_t shards = 0;
  uint64_t shards_carried = 0;
  uint64_t adopted = 0;
  uint64_t reuse_hits = 0;
  uint64_t inserted = 0;
  uint64_t store_hits = 0;
  uint64_t episodes = 0;
  Timer loop;
  while (episodes == 0 || loop.ElapsedSeconds() < f.seconds) {
    Episode ep = episodes == 0
                     ? std::move(fx->first)
                     : StartEpisode(ds, fx->paths.get(), w, f.seed, episodes);
    ++episodes;
    Timer warm;
    for (uint64_t t = 0; t < warmup_ticks; ++t) {
      ReplaceFinished(&ep);
      out.failed += ep.service->Tick().quarantined_now;
    }
    warmup_s += warm.ElapsedSeconds();

    for (uint64_t m = 0; m < w.measured_ticks; ++m) {
      ReplaceFinished(&ep);
      const PagerCounts before = PagerCounts::Read(ds);
      Timer t;
      const exec::TickResult r = ep.service->Tick();
      const double wall = t.ElapsedSeconds();
      io += PagerCounts::Read(ds) - before;

      tick_ms.push_back(wall * 1e3);
      (r.tick % kReshardPeriod == 0 ? reshard_ms : steady_ms)
          .push_back(wall * 1e3);
      tick_wall += wall;
      thread_wall += wall * static_cast<double>(r.stats.threads_used);
      out.attempted += r.updates.size();
      out.failed += r.quarantined_now;
      for (const exec::ClientUpdate& u : r.updates) {
        if (u.result.has_value()) ++updates;
      }
      totals += r.stats.per_query_totals;
      shards += r.stats.shard_count;
      shards_carried += r.stats.shards_carried;
      adopted += r.stats.workspaces_adopted;
      reuse_hits += r.stats.obstacle_reuse_hits;
      inserted += r.stats.obstacles_inserted;
      store_hits += r.stats.cross_shard_store_hits;

      if (m % kCheckTickEvery == 0) {
        CheckTick(r, ref, Mix(Mix(f.seed, episodes), r.tick), trace, &out);
      }
    }
    rejected += ep.routes->rejected();
  }

  const double ops = static_cast<double>(updates);
  const double ticks = static_cast<double>(tick_ms.size());
  rep->Add("setup_s", Median(setup_s), "s");
  rep->Add("throughput_ops", ops / tick_wall, "op/s");
  AddLatencyMetrics(tick_ms, rep);
  rep->Add("faults_per_op", Ratio(io.faults, ops), "pages/op");
  rep->Add("warmup_s", warmup_s, "s");
  rep->Add("episodes", static_cast<double>(episodes), "count");
  rep->Add("measured_share", tick_wall / loop.ElapsedSeconds(), "fraction");
  rep->Add("rejected_candidates", static_cast<double>(rejected), "count");
  rep->Add("exec.reshard_tick_p50_ms", Percentile(reshard_ms, 0.5), "ms");
  rep->Add("exec.steady_tick_p50_ms", Percentile(steady_ms, 0.5), "ms");

  if (trace != nullptr) {
    AddStorageMetrics(io, ops, rep);
    AddSpanMetrics(*trace, rep);
    AddCounterMetrics(totals, ops, rep);
    rep->Add("exec.in_query_share", Ratio(totals.cpu_seconds, thread_wall),
             "fraction");
    rep->Add("exec.reshard_over_steady",
             Ratio(Percentile(reshard_ms, 0.5), Percentile(steady_ms, 0.5)),
             "ratio");
    rep->Add("exec.shards_per_tick", static_cast<double>(shards) / ticks,
             "count");
    rep->Add("exec.carried_shard_frac",
             Ratio(static_cast<double>(shards_carried),
                   static_cast<double>(shards)),
             "fraction");
    rep->Add("exec.workspaces_adopted", static_cast<double>(adopted) / ticks,
             "count/tick");
    rep->Add("exec.reuse_frac",
             Ratio(static_cast<double>(reuse_hits),
                   static_cast<double>(reuse_hits + inserted)),
             "fraction");
    rep->Add("exec.store_hits_per_update",
             Ratio(static_cast<double>(store_hits), ops), "count/op");
    rep->Add("exec.tick_warm_frac",
             Ratio(static_cast<double>(totals.tick_warm_starts), ops),
             "fraction");
  }
  return out;
}

// --- output -------------------------------------------------------------------

void PrintRecord(const Flags& f, const Report& rep, const Outcome& out) {
  for (const Metric& m : rep.metrics()) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.failed == 0 && out.replay_mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("\"metrics\": {");
  const char* sep = "";
  for (const Metric& m : rep.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf(
      "}, \"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%.17g, \"trace\": %d, \"smoke\": %s, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %u, "
      "\"points\": %zu, \"obstacles\": %zu, \"dataset_seed\": %llu}}\n",
      f.workload.c_str(), static_cast<unsigned long long>(f.seed), f.seconds,
      f.trace ? 1 : 0, f.smoke ? "true" : "false", CONN_BENCH_BUILD_TYPE,
      CONN_BENCH_COMPILER, CONN_BENCH_GIT_SHA,
      std::thread::hardware_concurrency(), kPoints, kObstacles,
      static_cast<unsigned long long>(kDatasetSeed));
}

int Main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    Usage();
    return 2;
  }
  Report rep;
  Outcome out;
  TraceState trace;
  TraceState* traced = f.trace ? &trace : nullptr;
  if (f.workload == "ul_single") {
    out = RunUlSingle(f, traced, &rep);
  } else if (f.workload == "fleet_ticks") {
    // 32 clients around 2 depots: shards share, the settlement log and the
    // 2Q buffer pay, because the depots' working set fits the buffer.
    out = RunTicks(f, {FleetShape::kClustered, 32, 4, 32}, traced, &rep);
  } else {
    // The same service over a dispersed fleet: the locality guard declines
    // every shard, so queries build per-query graphs pre-seeded from the
    // ObstacleStore, and the working set exceeds the buffer.
    out = RunTicks(f, {FleetShape::kUniform, 16, 1, 8}, traced, &rep);
  }
  if (!f.spans_path.empty() && !trace.log.WriteJson(f.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", f.spans_path.c_str());
    return 1;
  }
  rep.Add("error_rate",
          Ratio(static_cast<double>(out.failed),
                static_cast<double>(out.attempted)),
          "fraction");
  rep.Add("core.replay_mismatches",
          static_cast<double>(out.replay_mismatches), "count");
  PrintRecord(f, rep, out);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace conn

int main(int argc, char** argv) { return conn::perfbench::Main(argc, argv); }
