// Frame-table buffer pool with pin counts — the zero-copy page cache behind
// the Pager.
//
// A fixed array of 4 KB frames is partitioned into shards; each shard owns a
// latch, a PageId -> frame hash table, and its eviction state.  Readers
// *borrow* frame memory through a PinnedPage RAII handle instead of copying
// pages out: a frame with a non-zero pin count is never evicted, so the
// borrowed bytes stay valid (and stable) for the lifetime of the handle.
//
// Each frame can additionally carry a *decoded object* — a type-erased
// shared_ptr installed by the first reader that parses the page (the R-tree
// layer caches deserialized nodes this way).  The decoded object lives and
// dies with the page's residency: eviction or a write drops the frame's
// reference, while readers that already hold the shared_ptr keep the object
// alive independently, so nothing ever dangles.
//
// Two eviction policies:
//   * kExactLru — a single strict LRU list over one shard.  Reproduces the
//     seed LruBuffer's eviction order (and therefore the committed Fig. 12
//     fault counts) bit-for-bit on any single-threaded trace.
//   * kTwoQueue — a 2Q-style segmented LRU (after Johnson & Shasha, VLDB
//     1994): a FIFO probationary queue (A1in) in front of a protected LRU
//     (Am), with a ghost FIFO of recently evicted ids (A1out).  A page is
//     promoted to Am on its second reference — while still probationary
//     (R-tree roots/internals are re-touched within one query) or on
//     re-load after a ghost hit — so the hot upper levels of an R-tree
//     survive leaf scans that would wash through a plain LRU.  Pages
//     referenced exactly once drain through the FIFO without disturbing
//     the protected set.  This is the default policy.
//
// Thread safety: concurrent Fetch/pin/unpin from many query threads is safe
// (the batch executor's workers share one pool per tree).  Configure() and
// Clear() are structural operations and require that no pins are live.

#ifndef CONN_STORAGE_BUFFER_POOL_H_
#define CONN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
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

/// Page eviction policy of the buffer pool.
enum class EvictionPolicy : uint8_t {
  kTwoQueue = 0,  ///< scan-resistant 2Q (default)
  kExactLru = 1,  ///< strict LRU, bit-compatible with the seed LruBuffer
};

/// Buffer-pool configuration.
struct BufferOptions {
  /// Capacity in 4 KB frames.  0 disables buffering entirely (the paper's
  /// default configuration): reads become direct views of the page file.
  size_t capacity_pages = 0;

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

  /// (Re)builds the frame table for \p options, dropping all cached pages
  /// and ghost history.  Requires that no pins are live.
  void Configure(const BufferOptions& options);

  /// Drops cached pages and ghost history, keeping the configuration.
  /// Requires that no pins are live.
  void Clear();

  const BufferOptions& options() const { return options_; }
  size_t capacity() const { return options_.capacity_pages; }

  /// Pins \p id if resident; true on hit.  Takes the decoded snapshot.
  bool TryGet(PageId id, PinnedPage* out);

  /// Stages \p src as page \p id, evicting per policy if needed.  If the
  /// page raced in concurrently the existing frame is used.  When \p out is
  /// non-null the frame is pinned into it; a null \p out marks the page as
  /// readahead-staged (its first demand hit is a first reference).
  /// Returns false (and caches nothing) when every candidate frame is
  /// pinned.
  bool Insert(PageId id, const Page& src, PinnedPage* out);

  /// Write-through hook: refreshes or inserts \p id's cached bytes and
  /// drops any decoded object (the page content changed).  Mirrors the
  /// seed LruBuffer::Put in exact-LRU mode (MRU touch on refresh).
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

  /// Which intrusive list a frame currently sits on.
  enum class ListId : uint8_t { kFree, kA1in, kAm };

  // Every non-atomic Frame field is guarded by the latch of the shard the
  // frame currently belongs to (frames never migrate between shards).
  // That relationship is not expressible as a GUARDED_BY annotation —
  // frames live in one flat vector while the latches live per shard — so
  // the pin-count atomics carry the cross-shard synchronization and the
  // REQUIRES(sh.mu) annotations on every helper below keep the latch
  // discipline machine-checked at the access-path level instead.
  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    std::atomic<uint32_t> pins{0};
    std::shared_ptr<const void> decoded;
    uint32_t prev = kNullFrame;
    uint32_t next = kNullFrame;
    ListId list = ListId::kFree;
    // Staged by readahead and not demand-referenced yet: the first demand
    // hit counts as the page's *first* reference, not a promoting second
    // one (otherwise a readahead-assisted scan would flood Am).
    bool prefetched = false;
  };

  /// Intrusive doubly-linked list over frame indices (head = MRU / newest).
  struct List {
    uint32_t head = kNullFrame;
    uint32_t tail = kNullFrame;
    size_t size = 0;
  };

  struct Shard {
    Mutex mu;
    std::unordered_map<PageId, uint32_t> table GUARDED_BY(mu);
    List free_list GUARDED_BY(mu);
    List a1in GUARDED_BY(mu);  ///< probationary FIFO (2Q); unused exact-LRU
    List am GUARDED_BY(mu);    ///< protected LRU (2Q) / the only (exact-LRU)
    // Ghost FIFO of ids recently evicted from A1in (2Q's A1out).  The map
    // is authoritative and holds each id's newest entry sequence; stale
    // FIFO entries (consumed by a ghost hit, or superseded by a re-ghost)
    // are recognized by their mismatching sequence and skipped on trim.
    std::deque<std::pair<PageId, uint64_t>> ghost_fifo GUARDED_BY(mu);
    std::unordered_map<PageId, uint64_t> ghost_map GUARDED_BY(mu);
    uint64_t ghost_seq GUARDED_BY(mu) = 0;
    size_t capacity GUARDED_BY(mu) = 0;     ///< frames owned by this shard
    size_t a1in_target GUARDED_BY(mu) = 0;  ///< max probationary queue size
  };

  size_t ShardOf(PageId id) const { return id % shards_.size(); }
  List& ListFor(Shard& sh, ListId id) REQUIRES(sh.mu);

  void Unlink(Shard& sh, uint32_t frame) REQUIRES(sh.mu);
  void PushFront(Shard& sh, ListId list, uint32_t frame) REQUIRES(sh.mu);

  /// Selects and detaches an unpinned victim frame of \p sh (evicting its
  /// current page, if any, per policy).  kNullFrame if all frames pinned.
  uint32_t AcquireFrame(Shard& sh) REQUIRES(sh.mu);

  /// Walks \p list from the tail; detaches and returns the first unpinned
  /// frame, or kNullFrame.  \p to_ghost records the evicted id in A1out.
  uint32_t EvictFromTail(Shard& sh, ListId list, bool to_ghost)
      REQUIRES(sh.mu);

  /// Copies \p src into a freshly acquired frame of \p sh, registers it
  /// under \p id, and places it on the policy-appropriate list (exact-LRU:
  /// MRU; 2Q: Am on a ghost hit, A1in otherwise).  Shared by the demand
  /// miss, readahead, and write-through paths.  kNullFrame if every
  /// candidate frame is pinned.
  uint32_t StageFrame(Shard& sh, PageId id, const Page& src)
      REQUIRES(sh.mu);

  void GhostInsert(Shard& sh, PageId id) REQUIRES(sh.mu);

  /// Pins frame \p f of \p sh and seats it into \p out (shared by the hit
  /// and miss paths): the pin must appear before the shard latch is
  /// released, and the decoded snapshot must be taken atomically with the
  /// table lookup.
  void PinInto(Shard& sh, uint32_t f, PageId id, PinnedPage* out)
      REQUIRES(sh.mu);

  void Unpin(uint32_t frame);
  void InstallDecoded(uint32_t frame, std::shared_ptr<const void> obj);

  BufferOptions options_;
  std::vector<Frame> frames_;
  // unique_ptr: Shard holds a mutex and must stay address-stable.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Counted under the owning shard's latch; atomic because readers
  // (ReportStats, engine deltas) aggregate across shards without latches.
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
};

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_BUFFER_POOL_H_
