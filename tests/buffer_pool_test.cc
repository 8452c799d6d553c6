// Property tests for the pin/unpin buffer pool:
//   * pinned frames are never evicted (and their bytes never move/change),
//   * the pool replays randomized read/write traces with the same hit/miss
//     sequence and resident set as the seed LruBuffer (which is what makes
//     the committed Fig. 12 fault counts reproducible),
//   * readahead-staged pages count prefetch hits and wasted prefetches,
//   * tree-level FetchNode caching serves identical nodes without re-parsing
//     and stays coherent across structural updates.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "lru_buffer.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage_test_util.h"

namespace conn {
namespace storage {
namespace {

/// A Pager with \p pages stamped pages and the given buffer configuration.
std::unique_ptr<Pager> MakePager(size_t pages, const BufferOptions& opts) {
  auto pager = std::make_unique<Pager>();
  for (size_t i = 0; i < pages; ++i) {
    const PageId id = pager->Allocate();
    CONN_CHECK(pager->Write(id, StampedPage(id)).ok());
  }
  pager->ConfigureBuffer(opts);  // drops pages cached during the writes
  pager->ResetCounters();
  return pager;
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  BufferOptions opts;
  opts.capacity_pages = 4;
  auto pager = MakePager(/*pages=*/32, opts);

  // Pin two pages and remember their frame addresses.
  StatusOr<PinnedPage> a = pager->Fetch(0);
  StatusOr<PinnedPage> b = pager->Fetch(1);
  ASSERT_TRUE(a.ok() && b.ok());
  const Page* addr_a = &a.value().page();
  const Page* addr_b = &b.value().page();

  // Churn far more distinct pages through the pool than it has frames.
  for (PageId id = 2; id < 32; ++id) ASSERT_TRUE(pager->Fetch(id).ok());

  // The pinned pages stayed resident, at the same addresses, unmodified.
  EXPECT_TRUE(pager->buffer_pool().Resident(0));
  EXPECT_TRUE(pager->buffer_pool().Resident(1));
  EXPECT_EQ(&a.value().page(), addr_a);
  EXPECT_EQ(&b.value().page(), addr_b);
  EXPECT_TRUE(PageMatchesStamp(a.value().page(), 0));
  EXPECT_TRUE(PageMatchesStamp(b.value().page(), 1));
  EXPECT_EQ(pager->buffer_pool().PinnedFrames(), 2u);

  a.value().Release();
  b.value().Release();
  EXPECT_EQ(pager->buffer_pool().PinnedFrames(), 0u);

  // Unpinned now: more churn may evict them again.
  for (PageId id = 2; id < 32; ++id) ASSERT_TRUE(pager->Fetch(id).ok());
  EXPECT_FALSE(pager->buffer_pool().Resident(0));
}

TEST(BufferPoolTest, FullyPinnedPoolServesOverflowCopies) {
  BufferOptions opts;
  opts.capacity_pages = 3;
  auto pager = MakePager(/*pages=*/8, opts);

  std::vector<PinnedPage> pins;
  for (PageId id = 0; id < 3; ++id) {
    pins.push_back(std::move(pager->Fetch(id)).value());
  }
  EXPECT_EQ(pager->buffer_pool().PinnedFrames(), 3u);

  // Every frame is pinned: the next miss falls back to a handle-owned copy
  // (still a fault) and caches nothing; the pinned pages are untouched.
  StatusOr<PinnedPage> overflow = pager->Fetch(7);
  ASSERT_TRUE(overflow.ok());
  EXPECT_TRUE(PageMatchesStamp(overflow.value().page(), 7));
  EXPECT_FALSE(pager->buffer_pool().Resident(7));
  for (PageId id = 0; id < 3; ++id) {
    EXPECT_TRUE(pager->buffer_pool().Resident(id));
    EXPECT_TRUE(PageMatchesStamp(pins[id].page(), id));
  }
  EXPECT_EQ(pager->faults(), 4u);
}

// Replays a randomized read/write trace against the default pool and
// against the seed LruBuffer wrapped in the seed Pager::Read logic,
// asserting the hit/miss outcome of every operation and the resident set
// after it agree exactly.
TEST(BufferPoolTest, ExactLruMatchesSeedLruBufferOnRandomizedTraces) {
  constexpr size_t kPages = 24;
  constexpr size_t kOps = 600;
  for (const size_t capacity : {1u, 2u, 3u, 5u, 8u, 16u}) {
    BufferOptions opts;
    opts.capacity_pages = capacity;
      auto pager = MakePager(kPages, opts);

    LruBuffer model(capacity);  // the seed buffer manager
    uint64_t model_faults = 0, model_hits = 0;

    Rng rng(0xF00D + capacity);
    for (size_t op = 0; op < kOps; ++op) {
      const PageId id = static_cast<PageId>(rng.UniformU64(kPages));
      if (rng.Bernoulli(0.1)) {
        // Write path: seed semantics were write-through + Put.
        const Page page = StampedPage(id);
        ASSERT_TRUE(pager->Write(id, page).ok());
        model.Put(id, page);
      } else {
        // Read path: seed semantics were Get-else-fault-and-Put.
        Page copy;
        if (model.Get(id, &copy)) {
          ++model_hits;
        } else {
          ++model_faults;
          model.Put(id, StampedPage(id));
        }
        StatusOr<PinnedPage> view = pager->Fetch(id);
        ASSERT_TRUE(view.ok());
        EXPECT_TRUE(PageMatchesStamp(view.value().page(), id));
      }
      ASSERT_EQ(pager->faults(), model_faults)
          << "op " << op << " capacity " << capacity;
      ASSERT_EQ(pager->hits(), model_hits)
          << "op " << op << " capacity " << capacity;
      for (PageId p = 0; p < kPages; ++p) {
        ASSERT_EQ(pager->buffer_pool().Resident(p), model.Contains(p))
            << "op " << op << " capacity " << capacity << " page " << p;
      }
    }
  }
}

TEST(BufferPoolTest, TwoQueueNeverExceedsCapacity) {
  BufferOptions opts;
  opts.capacity_pages = 6;
  auto pager = MakePager(/*pages=*/40, opts);
  Rng rng(99);
  for (size_t op = 0; op < 2000; ++op) {
    const PageId id = static_cast<PageId>(rng.UniformU64(40));
    ASSERT_TRUE(pager->Fetch(id).ok());
    ASSERT_LE(pager->buffer_pool().ResidentPages(), 6u);
  }
  EXPECT_EQ(pager->faults() + pager->hits(), 2000u);
}

TEST(BufferPoolTest, ReadaheadStagingDoesNotCountAsAFirstReference) {
  // Staging a page is not a reference: its first demand hit counts one
  // prefetch hit and is an ordinary LRU touch, and a staged page evicted
  // before any demand reference counts one wasted prefetch.
  BufferOptions opts;
  opts.capacity_pages = 4;
  opts.readahead_pages = 2;
  auto pager = MakePager(/*pages=*/16, opts);
  const BufferPool& pool = pager->buffer_pool();

  ASSERT_TRUE(pager->Fetch(0).ok());  // demand 0, stages 1 then 2
  EXPECT_TRUE(pager->buffer_pool().Resident(1));
  ASSERT_TRUE(pager->Fetch(1).ok());  // first demand touch of staged page 1
  EXPECT_EQ(pager->hits(), 1u);
  EXPECT_EQ(pool.prefetch_hits(), 1u);
  EXPECT_EQ(pool.prefetch_wasted(), 0u);

  // Demand 5 takes the free frame; staging 6 and 7 evicts the two LRU
  // pages.  Page 1's touch moved it ahead of page 2, so the victims are
  // page 0 (demand-referenced) and page 2 (staged, never referenced).
  ASSERT_TRUE(pager->Fetch(5).ok());
  EXPECT_TRUE(pager->buffer_pool().Resident(1));
  EXPECT_FALSE(pager->buffer_pool().Resident(0));
  EXPECT_FALSE(pager->buffer_pool().Resident(2));
  EXPECT_EQ(pool.prefetch_hits(), 1u);
  EXPECT_EQ(pool.prefetch_wasted(), 1u);
}

TEST(BufferPoolTest, ConfigureDropsContentsAndHistory) {
  BufferOptions opts;
  opts.capacity_pages = 4;
  auto pager = MakePager(/*pages=*/8, opts);
  for (PageId id = 0; id < 8; ++id) ASSERT_TRUE(pager->Fetch(id).ok());
  EXPECT_GT(pager->buffer_pool().ResidentPages(), 0u);
  pager->ConfigureBuffer(opts);
  EXPECT_EQ(pager->buffer_pool().ResidentPages(), 0u);
}

// --- tree-level decoded-node cache ---

rtree::RStarTree MakeTree(size_t objects) {
  std::vector<rtree::DataObject> objs;
  Rng rng(0xABCD);
  objs.reserve(objects);
  for (size_t i = 0; i < objects; ++i) {
    objs.push_back(rtree::DataObject::Point(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i));
  }
  return std::move(rtree::StrBulkLoad(std::move(objs)).value());
}

TEST(NodeCacheTest, HotNodesAreParsedOncePerResidency) {
  rtree::RStarTree tree = MakeTree(2000);
  tree.pager().SetBufferCapacity(tree.PageCount());
  StatusOr<rtree::ConstNodeRef> first = tree.FetchNode(tree.root());
  StatusOr<rtree::ConstNodeRef> second = tree.FetchNode(tree.root());
  ASSERT_TRUE(first.ok() && second.ok());
  // Same shared object: the second fetch reused the frame's decoded cache.
  EXPECT_EQ(first.value().get(), second.value().get());
}

TEST(NodeCacheTest, RefsSurviveEvictionOfTheirFrame) {
  rtree::RStarTree tree = MakeTree(4000);
  tree.pager().SetBufferCapacity(2);
  StatusOr<rtree::ConstNodeRef> root = tree.FetchNode(tree.root());
  ASSERT_TRUE(root.ok());
  const rtree::ConstNodeRef held = root.value();
  const uint16_t level = held->level;
  const size_t count = held->Count();
  // Evict the root's frame by touching many other pages.
  for (PageId id = 0; id < tree.PageCount(); ++id) {
    ASSERT_TRUE(tree.pager().Fetch(static_cast<PageId>(id)).ok());
  }
  // The shared node outlives its frame: same contents, no dangling.
  EXPECT_EQ(held->level, level);
  EXPECT_EQ(held->Count(), count);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(NodeCacheTest, InsertInvalidatesCachedNodes) {
  rtree::RStarTree tree = MakeTree(500);
  tree.pager().SetBufferCapacity(tree.PageCount() + 16);
  // Warm the decoded cache over the whole tree.
  ASSERT_TRUE(tree.Validate().ok());
  // Structural updates go through Pager::Write, which must drop stale
  // decoded nodes so subsequent reads see the new entries.
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tree.Insert(rtree::DataObject::Point({i * 1.0, i * 2.0}, 10000 + i))
            .ok());
  }
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<rtree::DataObject> found;
  ASSERT_TRUE(
      tree.RangeQuery(geom::Rect({-1, -1}, {1001, 1001}), &found).ok());
  EXPECT_EQ(found.size(), 550u);
}

}  // namespace
}  // namespace storage
}  // namespace conn
