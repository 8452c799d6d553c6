// Shared infrastructure for the figure-reproduction benchmarks.
//
// Datasets follow Section 5.1: workspace [0,10000]^2, obstacle set O = LA
// stand-in (street MBRs), point set P = CA stand-in / Uniform / Zipf(0.8),
// both indexed by R*-trees with 4 KB pages, 100 COkNN queries with random
// start/orientation and length ql% of the space side.  Defaults (Table 2,
// bold): ql = 4.5%, k = 5, |P|/|O| = 0.5, buffer = 0.
//
// Because the paper-scale run (|O| = 131,461, 100 queries) takes hours on a
// laptop, the harness scales cardinalities by CONN_BENCH_SCALE (default
// 0.05) and runs CONN_BENCH_QUERIES queries per configuration (default 3).
// Set CONN_BENCH_SCALE=1 CONN_BENCH_QUERIES=100 for the full experiment.
//
// Every harness links this library, which also stamps the Google Benchmark
// JSON context with conn's build type, compiler and git sha.

#ifndef CONN_BENCH_BENCH_COMMON_H_
#define CONN_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>

#include "common/stats.h"
#include "core/options.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace conn {
namespace bench {

/// Cardinality scale factor from $CONN_BENCH_SCALE, in (0, 1] (default
/// 0.05 when unset).  Aborts on any other value.
double BenchScale();

/// Queries per configuration from $CONN_BENCH_QUERIES, >= 1 (default 3
/// when unset).  Aborts on any other value.
size_t BenchQueries();

/// Paper cardinalities scaled by BenchScale().
size_t ScaledLa();  // |O|
size_t ScaledCa();  // |P| for the CL combination

/// A built dataset: point/obstacle sets plus the three R*-trees.
struct Dataset {
  datagen::DatasetPair pair;
  std::unique_ptr<rtree::RStarTree> tp;       ///< points only
  std::unique_ptr<rtree::RStarTree> to;       ///< obstacles only
  std::unique_ptr<rtree::RStarTree> unified;  ///< both (Section 4.5)
};

/// Returns a process-cached dataset (built on first use).
const Dataset& GetDataset(datagen::PointDistribution dist, size_t num_points,
                          size_t num_obstacles);

/// Buffer eviction policy from $CONN_BUFFER_POLICY ("2q" — the default —
/// or "exact-lru", the seed-compatible strict LRU).
storage::EvictionPolicy BenchBufferPolicy();

/// Human-readable name of a policy (benchmark labels).
const char* PolicyName(storage::EvictionPolicy policy);

/// Workload/measurement knobs for one benchmark configuration.
struct RunConfig {
  double ql_percent = 4.5;
  size_t k = 5;
  size_t queries = 0;          ///< 0 => BenchQueries()
  bool one_tree = false;       ///< Section 4.5 unified-tree variant
  double buffer_percent = 0.0; ///< buffer capacity as % of tree pages
  storage::EvictionPolicy buffer_policy = storage::EvictionPolicy::kTwoQueue;
  size_t warmup_queries = 0;   ///< extra queries to warm the buffer
  core::ConnOptions options;
  uint64_t seed = 7777;
};

/// Runs the COkNN workload and returns the per-query average stats.
QueryStats RunCoknnWorkload(const Dataset& ds, const RunConfig& cfg);

/// Publishes the paper's metrics as benchmark counters.
void ReportStats(benchmark::State& state, const QueryStats& avg,
                 size_t num_obstacles);

}  // namespace bench
}  // namespace conn

#endif  // CONN_BENCH_BENCH_COMMON_H_
