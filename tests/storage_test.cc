// Unit tests for the paged storage layer: PageFile, the LruBuffer reference
// model, and the Pager's pin-based fetch path and fault accounting (the
// basis of the paper's I/O metric).  Buffer-pool eviction/pinning property
// tests live in buffer_pool_test.cc.

#include <gtest/gtest.h>

#include "lru_buffer.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/pager.h"

namespace conn {
namespace storage {
namespace {

TEST(PageTest, TypedReadWriteRoundTrip) {
  Page p;
  p.WriteAt<uint64_t>(0, 0xDEADBEEFCAFEF00DULL);
  p.WriteAt<double>(8, 3.25);
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(p.ReadAt<double>(8), 3.25);
}

TEST(PageFileTest, AllocateReadWrite) {
  PageFile f;
  const PageId a = f.Allocate();
  const PageId b = f.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(f.PageCount(), 2u);

  Page p;
  p.WriteAt<int>(0, 42);
  ASSERT_TRUE(f.Write(a, p).ok());
  Page q;
  ASSERT_TRUE(f.Read(a, &q).ok());
  EXPECT_EQ(q.ReadAt<int>(0), 42);
}

TEST(PageFileTest, OutOfRangeIsNotFound) {
  PageFile f;
  Page p;
  EXPECT_EQ(f.Read(5, &p).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.Write(5, p).code(), StatusCode::kNotFound);
}

TEST(PageFileTest, FreshPageIsZeroed) {
  PageFile f;
  Page p;
  ASSERT_TRUE(f.Read(f.Allocate(), &p).ok());
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(p.bytes[i], 0);
}

TEST(LruBufferTest, ZeroCapacityNeverCaches) {
  LruBuffer buf(0);
  Page p;
  buf.Put(1, p);
  EXPECT_FALSE(buf.Get(1, &p));
  EXPECT_EQ(buf.size(), 0u);
}

TEST(LruBufferTest, EvictsLeastRecentlyUsed) {
  LruBuffer buf(2);
  Page p;
  p.WriteAt<int>(0, 1);
  buf.Put(1, p);
  p.WriteAt<int>(0, 2);
  buf.Put(2, p);
  // Touch 1 so 2 becomes LRU.
  ASSERT_TRUE(buf.Get(1, &p));
  p.WriteAt<int>(0, 3);
  buf.Put(3, p);
  EXPECT_TRUE(buf.Get(1, &p));
  EXPECT_FALSE(buf.Get(2, &p));  // evicted
  EXPECT_TRUE(buf.Get(3, &p));
}

TEST(LruBufferTest, PutRefreshesExistingEntry) {
  LruBuffer buf(2);
  Page p;
  p.WriteAt<int>(0, 10);
  buf.Put(7, p);
  p.WriteAt<int>(0, 20);
  buf.Put(7, p);
  EXPECT_EQ(buf.size(), 1u);
  ASSERT_TRUE(buf.Get(7, &p));
  EXPECT_EQ(p.ReadAt<int>(0), 20);
}

TEST(LruBufferTest, ShrinkEvicts) {
  LruBuffer buf(4);
  Page p;
  for (PageId i = 0; i < 4; ++i) buf.Put(i, p);
  buf.SetCapacity(1);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_TRUE(buf.Get(3, &p));  // most recent survives
}

TEST(PagerTest, UnbufferedEveryFetchFaults) {
  Pager pager;  // capacity 0 by default (paper's default configuration)
  const PageId id = pager.Allocate();
  Page p;
  p.WriteAt<int>(0, 77);
  ASSERT_TRUE(pager.Write(id, p).ok());
  for (int i = 0; i < 5; ++i) {
    StatusOr<PinnedPage> view = pager.Fetch(id);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().page().ReadAt<int>(0), 77);
  }
  EXPECT_EQ(pager.faults(), 5u);
  EXPECT_EQ(pager.hits(), 0u);
}

TEST(PagerTest, FetchOutOfRangeIsNotFound) {
  {
    Pager empty;
    EXPECT_EQ(empty.Fetch(3).status().code(), StatusCode::kNotFound);
  }
  // Unbuffered, 2Q and exact-LRU: an unallocated id fails before any
  // counter moves, and leaves no pin behind.
  struct Config {
    const char* name;
    size_t capacity;
    EvictionPolicy policy;
  };
  for (const Config& c : {Config{"unbuffered", 0, EvictionPolicy::kTwoQueue},
                          Config{"2q", 8, EvictionPolicy::kTwoQueue},
                          Config{"exact-lru", 8, EvictionPolicy::kExactLru}}) {
    SCOPED_TRACE(c.name);
    Pager pager;
    for (int i = 0; i < 4; ++i) pager.Allocate();
    BufferOptions opts;
    opts.capacity_pages = c.capacity;
    opts.policy = c.policy;
    pager.ConfigureBuffer(opts);
    const PageId bad = static_cast<PageId>(pager.PageCount() + 100);
    EXPECT_EQ(pager.Fetch(bad).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(pager.faults(), 0u);
    EXPECT_EQ(pager.hits(), 0u);
    EXPECT_EQ(pager.buffer_pool().PinnedFrames(), 0u);
  }
}

// A buffered Fetch of an unallocated id fails with the very status the
// unbuffered one returns: same code, same message, for both policies.
TEST(PageRequestTest, UnallocatedPageFailsLikeSyncFetch) {
  auto fetch_bad = [](size_t capacity, EvictionPolicy policy) {
    Pager pager;
    for (int i = 0; i < 4; ++i) pager.Allocate();
    BufferOptions opts;
    opts.capacity_pages = capacity;
    opts.policy = policy;
    pager.ConfigureBuffer(opts);
    return pager.Fetch(static_cast<PageId>(pager.PageCount() + 100)).status();
  };
  const Status sync_status = fetch_bad(0, EvictionPolicy::kTwoQueue);
  ASSERT_EQ(sync_status.code(), StatusCode::kNotFound);
  for (EvictionPolicy policy :
       {EvictionPolicy::kTwoQueue, EvictionPolicy::kExactLru}) {
    const Status got = fetch_bad(8, policy);
    EXPECT_EQ(got.code(), sync_status.code());
    EXPECT_EQ(got.message(), sync_status.message());
  }
}

TEST(PagerTest, BufferedRepeatFetchesHit) {
  Pager pager;
  pager.SetBufferCapacity(8);
  const PageId id = pager.Allocate();
  Page p;
  ASSERT_TRUE(pager.Write(id, p).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pager.Fetch(id).ok());
  // The write primed the buffer, so every fetch hits.
  EXPECT_EQ(pager.faults(), 0u);
  EXPECT_EQ(pager.hits(), 5u);
}

TEST(PagerTest, HitsBorrowFrameMemoryWithoutCopy) {
  Pager pager;
  pager.SetBufferCapacity(4);
  const PageId id = pager.Allocate();
  Page p;
  p.WriteAt<int>(0, 5);
  ASSERT_TRUE(pager.Write(id, p).ok());
  StatusOr<PinnedPage> a = pager.Fetch(id);
  StatusOr<PinnedPage> b = pager.Fetch(id);
  ASSERT_TRUE(a.ok() && b.ok());
  // Both handles alias the same frame — the hit path never copies a page.
  EXPECT_EQ(&a.value().page(), &b.value().page());
  EXPECT_EQ(pager.buffer_pool().PinnedFrames(), 1u);
}

TEST(PagerTest, ClearBufferForcesRefault) {
  Pager pager;
  pager.SetBufferCapacity(8);
  const PageId id = pager.Allocate();
  Page p;
  ASSERT_TRUE(pager.Write(id, p).ok());
  pager.ClearBuffer();
  ASSERT_TRUE(pager.Fetch(id).ok());
  ASSERT_TRUE(pager.Fetch(id).ok());
  EXPECT_EQ(pager.faults(), 1u);
  EXPECT_EQ(pager.hits(), 1u);
}

TEST(PagerTest, ResetCountersZeroesFaultsAndHits) {
  Pager pager;
  pager.SetBufferCapacity(2);
  const PageId id = pager.Allocate();
  Page p;
  ASSERT_TRUE(pager.Write(id, p).ok());
  ASSERT_TRUE(pager.Fetch(id).ok());
  pager.ClearBuffer();
  ASSERT_TRUE(pager.Fetch(id).ok());
  EXPECT_EQ(pager.faults(), 1u);
  EXPECT_EQ(pager.hits(), 1u);
  pager.ResetCounters();
  EXPECT_EQ(pager.faults(), 0u);
  EXPECT_EQ(pager.hits(), 0u);
  ASSERT_TRUE(pager.Fetch(id).ok());  // resident from before the reset
  EXPECT_EQ(pager.faults(), 0u);
  EXPECT_EQ(pager.hits(), 1u);
}

TEST(PagerTest, WriteThroughKeepsCacheCoherent) {
  Pager pager;
  pager.SetBufferCapacity(2);
  const PageId id = pager.Allocate();
  Page p;
  p.WriteAt<int>(0, 1);
  ASSERT_TRUE(pager.Write(id, p).ok());
  p.WriteAt<int>(0, 2);
  ASSERT_TRUE(pager.Write(id, p).ok());
  StatusOr<PinnedPage> view = pager.Fetch(id);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().page().ReadAt<int>(0), 2);
}

TEST(PagerTest, WriteDropsDecodedObject) {
  Pager pager;
  pager.SetBufferCapacity(2);
  const PageId id = pager.Allocate();
  Page p;
  ASSERT_TRUE(pager.Write(id, p).ok());
  {
    StatusOr<PinnedPage> view = pager.Fetch(id);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().decoded(), nullptr);
    view.value().SetDecoded(std::make_shared<int>(41));
  }
  {
    // The decoded object survives while the page stays resident...
    StatusOr<PinnedPage> view = pager.Fetch(id);
    ASSERT_TRUE(view.ok());
    ASSERT_NE(view.value().decoded(), nullptr);
    EXPECT_EQ(*std::static_pointer_cast<const int>(view.value().decoded()),
              41);
  }
  ASSERT_TRUE(pager.Write(id, p).ok());
  {
    // ...but a write invalidates it: the bytes may no longer match.
    StatusOr<PinnedPage> view = pager.Fetch(id);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().decoded(), nullptr);
  }
}

TEST(PagerTest, ReadaheadStagesFollowingPagesWithoutFaults) {
  Pager pager;
  for (int i = 0; i < 16; ++i) pager.Allocate();
  BufferOptions opts;
  opts.capacity_pages = 8;
  opts.readahead_pages = 3;
  pager.ConfigureBuffer(opts);
  ASSERT_TRUE(pager.Fetch(0).ok());
  // The demand miss faulted once but staged pages 1..3 as device reads.
  EXPECT_EQ(pager.faults(), 1u);
  EXPECT_EQ(pager.file().device_reads(), 4u);
  for (PageId id = 1; id <= 3; ++id) ASSERT_TRUE(pager.Fetch(id).ok());
  EXPECT_EQ(pager.faults(), 1u);
  EXPECT_EQ(pager.hits(), 3u);
  // Readahead stops at the end of the file.
  ASSERT_TRUE(pager.Fetch(15).ok());
  EXPECT_EQ(pager.faults(), 2u);
}

}  // namespace
}  // namespace storage
}  // namespace conn
