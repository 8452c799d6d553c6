#include "bench_common.h"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>

#include "common/check.h"
#include "core/coknn.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace bench {

namespace {

// Records the build every harness's JSON was produced by, next to Google
// Benchmark's own host context.  The values are fixed when CMake
// configures the bench targets (bench/CMakeLists.txt).
[[maybe_unused]] const bool kBuildContextStamped = [] {
  benchmark::AddCustomContext("conn_build_type", CONN_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("conn_compiler", CONN_BENCH_COMPILER);
  benchmark::AddCustomContext("conn_git_sha", CONN_BENCH_GIT_SHA);
  return true;
}();

}  // namespace

// A typo in either variable would otherwise publish smoke-scale numbers as
// a full-scale run, so anything set but not fully parsable and in range
// aborts with the variable's name.
double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("CONN_BENCH_SCALE");
    if (env == nullptr) return 0.05;
    char* end = nullptr;
    const double s = std::strtod(env, &end);
    CONN_CHECK_MSG(end != env && *end == '\0' && s > 0.0 && s <= 1.0,
                   "CONN_BENCH_SCALE must be a number in (0, 1]");
    return s;
  }();
  return scale;
}

size_t BenchQueries() {
  static const size_t queries = [] {
    const char* env = std::getenv("CONN_BENCH_QUERIES");
    if (env == nullptr) return size_t{3};
    char* end = nullptr;
    errno = 0;
    const long long q = std::strtoll(env, &end, 10);
    CONN_CHECK_MSG(end != env && *end == '\0' && errno == 0 && q >= 1,
                   "CONN_BENCH_QUERIES must be an integer >= 1");
    return static_cast<size_t>(q);
  }();
  return queries;
}

size_t ScaledLa() {
  return static_cast<size_t>(datagen::kLaCardinality * BenchScale());
}

size_t ScaledCa() {
  return static_cast<size_t>(datagen::kCaCardinality * BenchScale());
}

const Dataset& GetDataset(datagen::PointDistribution dist, size_t num_points,
                          size_t num_obstacles) {
  using Key = std::tuple<int, size_t, size_t>;
  static std::map<Key, std::unique_ptr<Dataset>>* cache =
      new std::map<Key, std::unique_ptr<Dataset>>();
  const Key key{static_cast<int>(dist), num_points, num_obstacles};
  auto it = cache->find(key);
  if (it != cache->end()) return *it->second;

  auto ds = std::make_unique<Dataset>();
  ds->pair = datagen::MakeDatasetPair(dist, num_points, num_obstacles,
                                      /*seed=*/0xC0DE + num_points * 31 +
                                          num_obstacles * 7);
  ds->tp = std::make_unique<rtree::RStarTree>(std::move(
      rtree::StrBulkLoad(datagen::ToPointObjects(ds->pair.points)).value()));
  ds->to = std::make_unique<rtree::RStarTree>(std::move(
      rtree::StrBulkLoad(datagen::ToObstacleObjects(ds->pair.obstacles))
          .value()));
  std::vector<rtree::DataObject> all =
      datagen::ToPointObjects(ds->pair.points);
  for (const rtree::DataObject& o :
       datagen::ToObstacleObjects(ds->pair.obstacles)) {
    all.push_back(o);
  }
  ds->unified = std::make_unique<rtree::RStarTree>(
      std::move(rtree::StrBulkLoad(std::move(all)).value()));

  auto [pos, inserted] = cache->emplace(key, std::move(ds));
  CONN_CHECK(inserted);
  return *pos->second;
}

QueryStats RunCoknnWorkload(const Dataset& ds, const RunConfig& cfg) {
  const size_t queries = cfg.queries == 0 ? BenchQueries() : cfg.queries;

  // Configure buffers ("% of the tree size", Figure 12) and zero the
  // counters: the workload below charges its warm-up half separately.
  auto set_buffer = [&](rtree::RStarTree& tree) {
    // Also drops stale cached pages.
    tree.pager().SetBufferCapacity(static_cast<size_t>(
        tree.PageCount() * cfg.buffer_percent / 100.0));
    tree.pager().ResetCounters();
  };
  set_buffer(*ds.tp);
  set_buffer(*ds.to);
  set_buffer(*ds.unified);

  datagen::WorkloadOptions wopts;
  wopts.query_length = datagen::QueryLengthFromPercent(cfg.ql_percent);
  const std::vector<geom::Segment> warmup = datagen::MakeWorkload(
      cfg.warmup_queries, datagen::Workspace(), wopts, {}, cfg.seed * 13 + 5);
  const std::vector<geom::Segment> workload = datagen::MakeWorkload(
      queries, datagen::Workspace(), wopts, {}, cfg.seed);

  // Warm half: primes the buffer pool but is excluded from the reported
  // averages.  Per-query stats are computed from counter deltas, so the
  // warm half cannot leak into the measured half; resetting here
  // additionally keeps the pagers' cumulative counters equal to the
  // measured half alone, which is what the faults /
  // hits counters in the published JSON summarize.
  const rtree::RStarTree& data_tree = cfg.one_tree ? *ds.unified : *ds.tp;
  const rtree::RStarTree& obstacle_tree = cfg.one_tree ? *ds.unified : *ds.to;
  for (const geom::Segment& q : warmup) {
    core::CoknnQuery(data_tree, obstacle_tree, q, cfg.k, cfg.options);
  }
  ds.tp->pager().ResetCounters();
  ds.to->pager().ResetCounters();
  ds.unified->pager().ResetCounters();

  QueryStats total;
  for (const geom::Segment& q : workload) {
    const core::CoknnResult r =
        core::CoknnQuery(data_tree, obstacle_tree, q, cfg.k, cfg.options);
    total += r.stats;
  }
  return total.AveragedOver(queries);
}

void ReportStats(benchmark::State& state, const QueryStats& avg,
                 size_t num_obstacles) {
  state.counters["qcost_s"] = avg.QueryCostSeconds();
  state.counters["io_s"] = avg.IoSeconds();
  state.counters["cpu_s"] = avg.cpu_seconds;
  state.counters["pages"] = static_cast<double>(avg.TotalPageReads());
  // "pages" is the paper's I/O metric name; "faults" spells out what it
  // counts so the fault curve is directly greppable in the JSON.
  state.counters["faults"] = static_cast<double>(avg.TotalPageReads());
  state.counters["NPE"] = static_cast<double>(avg.points_evaluated);
  state.counters["NOE"] = static_cast<double>(avg.obstacles_evaluated);
  state.counters["SVG"] = static_cast<double>(avg.vis_graph_vertices);
  state.counters["FULL"] = static_cast<double>(4 * num_obstacles);
  state.counters["vis_tests"] = static_cast<double>(avg.visibility_tests);
  state.counters["seed_tests"] = static_cast<double>(avg.seed_tests);
  state.counters["settled"] = static_cast<double>(avg.dijkstra_settled);
  state.counters["tick_warm"] = static_cast<double>(avg.tick_warm_starts);
  state.counters["tick_frontier"] =
      static_cast<double>(avg.tick_frontier_reuse);
  state.counters["store_hits"] =
      static_cast<double>(avg.cross_shard_store_hits);
  state.counters["prefetch_issued"] = static_cast<double>(avg.prefetch_issued);
  state.counters["prefetch_hits"] = static_cast<double>(avg.prefetch_hits);
  state.counters["prefetch_wasted"] = static_cast<double>(avg.prefetch_wasted);
}

}  // namespace bench
}  // namespace conn
