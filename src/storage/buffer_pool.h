// Frame-table buffer pool with pin counts — the zero-copy page cache behind
// the Pager.
//
// A fixed array of 4 KB frames sits under one latch, with a PageId -> frame
// hash table and one strict LRU list: a hit moves the page to the MRU end,
// and a miss on a full pool evicts the least recently used unpinned page.
// This is the paper's buffer (Fig. 12), and the pool reproduces the seed
// LruBuffer's eviction order (tests/lru_buffer.h) fault for fault on any
// single-threaded trace.  Readers *borrow* frame memory through a
// PinnedPage RAII handle instead of copying pages out: a frame with a
// non-zero pin count is never evicted, so the borrowed bytes stay valid
// (and stable) for the lifetime of the handle.
//
// Each frame can additionally carry a *decoded object* — a type-erased
// shared_ptr installed by the first reader that parses the page (the R-tree
// layer caches deserialized nodes this way).  The decoded object lives and
// dies with the page's residency: eviction or a write drops the frame's
// reference, while readers that already hold the shared_ptr keep the object
// alive independently, so nothing ever dangles.
//
// Thread safety: concurrent Fetch/pin/unpin from many query threads is safe
// (the batch executor's workers share one pool per tree).  Configure() and
// Clear() are structural operations and require that no pins are live.

#ifndef CONN_STORAGE_BUFFER_POOL_H_
#define CONN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "storage/page.h"

namespace conn {
namespace storage {

class BufferPool;

/// Has no effect: the pool is LRU whatever BufferOptions::policy holds.
/// Kept because perfbench/conn_bench.cc:759 (ConfigureTickBuffer) still
/// assigns kTwoQueue.
enum class EvictionPolicy : uint8_t {
  kTwoQueue = 0,
};

/// Buffer-pool configuration.
struct BufferOptions {
  /// Capacity in 4 KB frames.  0 disables buffering entirely (the paper's
  /// default configuration): reads become direct views of the page file.
  size_t capacity_pages = 0;

  /// Has no effect; see EvictionPolicy.
  EvictionPolicy policy = EvictionPolicy::kTwoQueue;

  /// On a demand miss, additionally stage up to this many immediately
  /// following page ids into the pool.  STR bulk loading allocates each
  /// level's nodes contiguously, so sibling leaves prefetch for free.
  /// Prefetched pages count device reads but not faults; a later demand
  /// access of a staged page counts a buffer hit.  0 disables readahead.
  size_t readahead_pages = 0;
};

/// RAII borrow of one page's memory.  Obtained from Pager::Fetch(); the
/// underlying frame cannot be evicted (and its bytes cannot change) while
/// the handle is alive.  Move-only; destroying it releases the pin.
class PinnedPage {
 public:
  PinnedPage() = default;
  ~PinnedPage() { Release(); }

  PinnedPage(PinnedPage&& other) noexcept { *this = std::move(other); }
  PinnedPage& operator=(PinnedPage&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      data_ = other.data_;
      id_ = other.id_;
      decoded_ = std::move(other.decoded_);
      owned_ = std::move(other.owned_);
      other.pool_ = nullptr;
      other.data_ = nullptr;
    }
    return *this;
  }

  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }

  /// The borrowed page bytes.  No copy is ever made on a buffer hit.
  const Page& page() const {
    CONN_DCHECK(data_ != nullptr);
    return *data_;
  }

  /// Decoded-object snapshot taken when the page was fetched (null if no
  /// reader has parsed this residency of the page yet).
  const std::shared_ptr<const void>& decoded() const { return decoded_; }

  /// Publishes a decoded object for this page so later fetches skip
  /// re-parsing.  A no-op (beyond updating this handle) when the page is
  /// not pool-resident (unbuffered reads, overflow fallbacks).
  void SetDecoded(std::shared_ptr<const void> obj);

  /// Explicitly releases the pin (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  friend class Pager;

  /// View straight into PageFile memory (unbuffered configuration).
  static PinnedPage Direct(PageId id, const Page* data) {
    PinnedPage p;
    p.id_ = id;
    p.data_ = data;
    return p;
  }

  /// Handle-owned copy, used when every frame is pinned (overflow).
  static PinnedPage Overflow(PageId id, const Page& src) {
    PinnedPage p;
    p.id_ = id;
    p.owned_ = std::make_unique<Page>(src);
    p.data_ = p.owned_.get();
    return p;
  }

  BufferPool* pool_ = nullptr;  ///< null for direct / overflow handles
  uint32_t frame_ = 0;
  const Page* data_ = nullptr;
  PageId id_ = kInvalidPageId;
  std::shared_ptr<const void> decoded_;
  std::unique_ptr<Page> owned_;
};

/// The frame table.  Owned by a Pager; see the file comment for semantics.
class BufferPool {
 public:
  BufferPool() = default;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// (Re)builds the frame table for \p options, dropping all cached
  /// pages.  Requires that no pins are live.
  void Configure(const BufferOptions& options);

  /// Drops cached pages, keeping the configuration.
  /// Requires that no pins are live.
  void Clear();

  const BufferOptions& options() const { return options_; }
  size_t capacity() const { return options_.capacity_pages; }

  /// Pins \p id if resident; true on hit.  Takes the decoded snapshot.
  bool TryGet(PageId id, PinnedPage* out);

  /// Stages \p src as page \p id at the MRU end, evicting the LRU
  /// unpinned page if the pool is full.  If the page raced in concurrently
  /// the existing frame is used.  When \p out is non-null the frame is
  /// pinned into it; a null \p out marks the page as readahead-staged (its
  /// first demand hit counts one prefetch hit).  Returns false (and caches
  /// nothing) when every frame is pinned.
  bool Insert(PageId id, const Page& src, PinnedPage* out);

  /// Write-through hook: refreshes or inserts \p id's cached bytes and
  /// drops any decoded object (the page content changed).  Mirrors the
  /// seed LruBuffer::Put (MRU touch on refresh).
  /// Requires the page to be unpinned (writes never overlap reads).
  void PutForWrite(PageId id, const Page& src);

  /// True if \p id currently occupies a frame (test/readahead helper).
  bool Resident(PageId id);

  /// Number of resident pages / currently pinned frames (test helpers).
  size_t ResidentPages();
  size_t PinnedFrames();

  /// Staging effectiveness counters.  A demand hit on a staged page whose
  /// first demand reference this is counts one prefetch hit; evicting a
  /// staged page that was never demand-referenced counts one wasted
  /// prefetch.  (Counting staged pages lives on the Pager, which runs the
  /// readahead.)
  uint64_t prefetch_hits() const {
    return prefetch_hits_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_wasted() const {
    return prefetch_wasted_.load(std::memory_order_relaxed);
  }
  void ResetPrefetchCounters() {
    prefetch_hits_.store(0, std::memory_order_relaxed);
    prefetch_wasted_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class PinnedPage;

  static constexpr uint32_t kNullFrame = UINT32_MAX;

  // Every non-atomic Frame field is guarded by mu_.  That is not
  // expressible as a GUARDED_BY annotation — frames live in one flat
  // vector — so the pin-count atomics carry the synchronization with
  // unpinning readers, and the REQUIRES(mu_) annotations on every helper
  // below keep the latch discipline machine-checked at the access-path
  // level instead.
  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    std::atomic<uint32_t> pins{0};
    std::shared_ptr<const void> decoded;
    uint32_t prev = kNullFrame;  ///< toward the MRU end of lru_
    uint32_t next = kNullFrame;  ///< toward the LRU end of lru_
    // Staged by readahead and not demand-referenced yet: the first demand
    // hit counts one prefetch hit, and eviction before it counts one
    // wasted prefetch.
    bool prefetched = false;
  };

  /// Intrusive doubly-linked list over frame indices (head = MRU).
  struct List {
    uint32_t head = kNullFrame;
    uint32_t tail = kNullFrame;
  };

  void Unlink(uint32_t frame) REQUIRES(mu_);
  void PushFront(uint32_t frame) REQUIRES(mu_);

  /// Detaches a frame for a new page: a free one, else the LRU unpinned
  /// frame, whose page is evicted.  kNullFrame if every frame is pinned.
  uint32_t AcquireFrame() REQUIRES(mu_);

  /// Copies \p src into a freshly acquired frame, registers it under
  /// \p id and places it at the MRU end.  Shared by the demand miss,
  /// readahead, and write-through paths.  kNullFrame if every frame is
  /// pinned.
  uint32_t StageFrame(PageId id, const Page& src) REQUIRES(mu_);

  /// Pins frame \p f and seats it into \p out (shared by the hit and miss
  /// paths): the pin must appear before the latch is released, and the
  /// decoded snapshot must be taken atomically with the table lookup.
  void PinInto(uint32_t f, PageId id, PinnedPage* out) REQUIRES(mu_);

  void Unpin(uint32_t frame);
  void InstallDecoded(uint32_t frame, std::shared_ptr<const void> obj);

  BufferOptions options_;
  std::vector<Frame> frames_;
  Mutex mu_;
  std::unordered_map<PageId, uint32_t> table_ GUARDED_BY(mu_);
  List lru_ GUARDED_BY(mu_);
  std::vector<uint32_t> free_frames_ GUARDED_BY(mu_);
  // Counted under mu_; atomic because readers (ReportStats, engine deltas)
  // read them without the latch.
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
};

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_BUFFER_POOL_H_
