// Fault parity guard for the synchronous fetch path: replaying the Fig. 12
// benchmark recipe (bench/fig12_buffer.cc at the smoke scale its committed
// baseline was recorded under) on the default pool must reproduce the
// seed LRU buffer's fault counts — the numbers published in
// baselines/README.md — exactly.
// A drift of even one fault here means a change to the pager, the buffer
// pool or a traversal altered which pages a query reads.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/coknn.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"

namespace conn {
namespace core {
namespace {

// bench_common.h smoke defaults: CONN_BENCH_SCALE=0.05,
// CONN_BENCH_QUERIES=3, seed 7777, warm-up half equal to the measured
// half, ql=4.5%, k=5.
constexpr double kScale = 0.05;
constexpr size_t kQueries = 3;
constexpr uint64_t kSeed = 7777;

struct BaselinePoint {
  double buffer_percent;
  uint64_t faults;  // baselines/README.md, CL curve
};

TEST(Fig12Parity, SyncPathReproducesCommittedExactLruFaults) {
  const size_t num_points =
      static_cast<size_t>(datagen::kCaCardinality * kScale);
  const size_t num_obstacles =
      static_cast<size_t>(datagen::kLaCardinality * kScale);
  const datagen::DatasetPair pair = datagen::MakeDatasetPair(
      datagen::PointDistribution::kClustered, num_points, num_obstacles,
      /*seed=*/0xC0DE + num_points * 31 + num_obstacles * 7);
  rtree::RStarTree tp =
      rtree::StrBulkLoad(datagen::ToPointObjects(pair.points)).value();
  rtree::RStarTree to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(pair.obstacles)).value();

  datagen::WorkloadOptions wopts;
  wopts.query_length = datagen::QueryLengthFromPercent(4.5);
  const std::vector<geom::Segment> warmup = datagen::MakeWorkload(
      kQueries, datagen::Workspace(), wopts, {}, kSeed * 13 + 5);
  const std::vector<geom::Segment> workload =
      datagen::MakeWorkload(kQueries, datagen::Workspace(), wopts, {}, kSeed);

  const std::vector<BaselinePoint> curve{
      {0.0, 21}, {2.0, 20}, {8.0, 16}, {32.0, 10}};
  for (const BaselinePoint& point : curve) {
    SCOPED_TRACE("bs=" + std::to_string(point.buffer_percent) + "%");
    for (rtree::RStarTree* tree : {&tp, &to}) {
      storage::BufferOptions opts = tree->pager().buffer_pool().options();
      opts.capacity_pages = static_cast<size_t>(
          tree->PageCount() * point.buffer_percent / 100.0);
      tree->pager().ConfigureBuffer(opts);
      tree->pager().ResetCounters();
    }
    for (const geom::Segment& q : warmup) {
      CoknnQuery(tp, to, q, /*k=*/5);
    }
    tp.pager().ResetCounters();
    to.pager().ResetCounters();

    QueryStats total;
    for (const geom::Segment& q : workload) {
      total += CoknnQuery(tp, to, q, /*k=*/5).stats;
    }
    EXPECT_EQ(total.AveragedOver(kQueries).TotalPageReads(), point.faults);
  }
}

}  // namespace
}  // namespace core
}  // namespace conn
