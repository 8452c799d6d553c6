// Concurrency hammer for the batch executor, written to be run under
// ThreadSanitizer (the `tsan` preset's CI job): many worker threads share
// one dataset's trees — and therefore one Pager per tree — while separate
// batches run concurrently against the same runner.  Buffered and
// unbuffered pager configurations are both exercised (they take different
// locking paths).

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/workload.h"
#include "exec/batch.h"
#include "test_util.h"

namespace conn {
namespace exec {
namespace {

std::vector<BatchQuery> HammerQueries(const testutil::Scene& scene,
                                      size_t count, uint64_t seed) {
  datagen::WorkloadOptions wopts;
  wopts.query_length = 300.0;
  std::vector<BatchQuery> batch;
  for (const geom::Segment& q :
       datagen::MakeWorkload(count, scene.domain, wopts, {}, seed)) {
    batch.push_back(BatchQuery::Coknn(q, 2));
  }
  return batch;
}

TEST(BatchConcurrency, ManyThreadsHammerOneDataset) {
  const testutil::Scene scene = testutil::MakeScene(77, 70, 25);
  const rtree::RStarTree tp = testutil::MakePointTree(scene);
  const rtree::RStarTree to = testutil::MakeObstacleTree(scene);
  // Buffered pagers: concurrent reads contend on the LRU lock.
  tp.pager().SetBufferCapacity(16);
  to.pager().SetBufferCapacity(16);

  const std::vector<BatchQuery> batch = HammerQueries(scene, 16, 990);

  BatchOptions opts;
  opts.num_threads = 8;
  opts.target_shard_size = 2;  // many shards -> all workers busy
  const BatchRunner runner(tp, to, opts);
  const BatchResult result = runner.Run(batch);

  ASSERT_EQ(result.outcomes.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].coknn.has_value()) << "query " << i;
    const core::CoknnResult want =
        core::CoknnQuery(tp, to, batch[i].segment, batch[i].k);
    const core::CoknnResult& got = *result.outcomes[i].coknn;
    ASSERT_EQ(got.tuples.size(), want.tuples.size()) << "query " << i;
    for (size_t j = 0; j < got.tuples.size(); ++j) {
      EXPECT_EQ(got.tuples[j].range.lo, want.tuples[j].range.lo);
      EXPECT_EQ(got.tuples[j].range.hi, want.tuples[j].range.hi);
      ASSERT_EQ(got.tuples[j].candidates.size(),
                want.tuples[j].candidates.size());
      for (size_t c = 0; c < got.tuples[j].candidates.size(); ++c) {
        EXPECT_EQ(got.tuples[j].candidates[c].pid,
                  want.tuples[j].candidates[c].pid);
      }
    }
  }
  tp.pager().SetBufferCapacity(0);
  to.pager().SetBufferCapacity(0);
}

TEST(BatchConcurrency, ConcurrentBatchesShareTreesSafely) {
  const testutil::Scene scene = testutil::MakeScene(78, 60, 20);
  const rtree::RStarTree unified = testutil::MakeUnifiedTree(scene);

  const std::vector<BatchQuery> batch_a = HammerQueries(scene, 10, 991);
  const std::vector<BatchQuery> batch_b = HammerQueries(scene, 10, 992);

  BatchOptions opts;
  opts.num_threads = 3;
  opts.target_shard_size = 2;
  const BatchRunner runner(unified, unified, opts);

  // Run() is const and reentrant: two batches in flight on one runner,
  // hammering one unbuffered pager from up to six workers.
  BatchResult ra, rb;
  std::thread ta([&] { ra = runner.Run(batch_a); });
  std::thread tb([&] { rb = runner.Run(batch_b); });
  ta.join();
  tb.join();

  ASSERT_EQ(ra.outcomes.size(), batch_a.size());
  ASSERT_EQ(rb.outcomes.size(), batch_b.size());
  for (size_t i = 0; i < batch_a.size(); ++i) {
    const core::CoknnResult want =
        core::CoknnQuery(unified, unified, batch_a[i].segment, batch_a[i].k);
    ASSERT_TRUE(ra.outcomes[i].coknn.has_value());
    EXPECT_EQ(ra.outcomes[i].coknn->tuples.size(), want.tuples.size())
        << "query " << i;
  }
  // The batch-level fault accounting moved (reads happened) and the
  // per-query totals accumulated exactly one entry per query.
  EXPECT_GT(ra.stats.data_page_faults + rb.stats.data_page_faults, 0u);
  EXPECT_EQ(ra.stats.per_query_totals.points_evaluated +
                rb.stats.per_query_totals.points_evaluated,
            [&] {
              uint64_t total = 0;
              for (const auto& o : ra.outcomes) {
                total += o.coknn->stats.points_evaluated;
              }
              for (const auto& o : rb.outcomes) {
                total += o.coknn->stats.points_evaluated;
              }
              return total;
            }());
}

}  // namespace
}  // namespace exec
}  // namespace conn
