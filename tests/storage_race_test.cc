// Concurrency tests for the pin/unpin buffer pool, run under the tsan
// preset (label "exec") alongside the batch-executor suite: many threads
// fetch, pin, read, and release pages of one shared Pager while eviction
// churns, which is exactly what BatchRunner's workers do to a tree's pool.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage_test_util.h"

namespace conn {
namespace storage {
namespace {

void RunChurn(size_t capacity_pages = 8, size_t pages = 64) {
  const size_t kPages = pages;
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 1500;

  Pager pager;
  for (size_t i = 0; i < kPages; ++i) {
    const PageId id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, StampedPage(id)).ok());
  }
  BufferOptions opts;
  // The default 8 frames sit far below the 64-page working set, so
  // eviction churns constantly.  The large-pool variant below overrides
  // both.
  opts.capacity_pages = capacity_pages;
  pager.ConfigureBuffer(opts);
  pager.ResetCounters();

  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xBEEF + t);
      std::vector<PinnedPage> held;  // pins held across later fetches
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        // Skew toward a hot set so hits, misses, and evictions all happen.
        const PageId id = rng.Bernoulli(0.5)
                              ? static_cast<PageId>(rng.UniformU64(8))
                              : static_cast<PageId>(rng.UniformU64(kPages));
        StatusOr<PinnedPage> view = pager.Fetch(id);
        if (!view.ok() || !PageMatchesStamp(view.value().page(), id)) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Exercise the decoded-object slot under contention.
        if (view.value().decoded() == nullptr && rng.Bernoulli(0.25)) {
          view.value().SetDecoded(std::make_shared<PageId>(id));
        } else if (view.value().decoded() != nullptr &&
                   *std::static_pointer_cast<const PageId>(
                       view.value().decoded()) != id) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
        // Sometimes keep the pin alive across future fetches/evictions.
        if (rng.Bernoulli(0.2)) {
          held.push_back(std::move(view).value());
          if (held.size() > 4) held.erase(held.begin());
        }
      }
      // Re-check pages still pinned at the end: their bytes never moved.
      for (const PinnedPage& p : held) {
        if (!PageMatchesStamp(p.page(), p.id())) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(pager.buffer_pool().PinnedFrames(), 0u);  // no leaked pins
  // Every fetch resolved to exactly one hit or one fault.
  EXPECT_EQ(pager.faults() + pager.hits(), kThreads * kOpsPerThread);
}

TEST(StorageRaceTest, ConcurrentFetchPinUnpinChurnExactLru) { RunChurn(); }

// Churn on a 256-frame pool over 1,024 pages: evictions, inserts and pin
// traffic spread over many more frames, all under the pool's one latch.
TEST(StorageRaceTest, ConcurrentChurnAcrossLiftedShardFanout) {
  RunChurn(/*capacity_pages=*/256, /*pages=*/1024);
}

TEST(StorageRaceTest, ConcurrentTreeTraversalsShareOnePool) {
  // Four threads range-scan one tree whose pool is much smaller than the
  // tree, so frames churn while every thread parses nodes from pinned
  // memory and installs/consumes decoded-node cache entries.
  constexpr size_t kObjects = 4000;
  std::vector<rtree::DataObject> objs;
  Rng rng(0x7EA);
  objs.reserve(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    objs.push_back(rtree::DataObject::Point(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i));
  }
  rtree::RStarTree tree =
      std::move(rtree::StrBulkLoad(std::move(objs)).value());
  tree.pager().SetBufferCapacity(8);

  // Single-threaded reference counts per window.
  std::vector<geom::Rect> windows;
  std::vector<size_t> expected;
  Rng wrng(0x51DE);
  for (int i = 0; i < 32; ++i) {
    const double x = wrng.Uniform(0, 900), y = wrng.Uniform(0, 900);
    windows.push_back(geom::Rect({x, y}, {x + 100, y + 100}));
    std::vector<rtree::DataObject> out;
    ASSERT_TRUE(tree.RangeQuery(windows.back(), &out).ok());
    expected.push_back(out.size());
  }

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t round = 0; round < 8; ++round) {
        for (size_t w = 0; w < windows.size(); ++w) {
          std::vector<rtree::DataObject> out;
          if (!tree.RangeQuery(windows[w], &out).ok() ||
              out.size() != expected[w]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(tree.pager().buffer_pool().PinnedFrames(), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace conn
