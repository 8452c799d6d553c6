// Pager: the access path every R-tree node read goes through.  Combines the
// simulated disk (PageFile) with the pin/unpin buffer pool (buffer_pool.h)
// and maintains the fault/hit counters that drive the paper's I/O metric
// (10 ms per fault).
//
// The read API is pin-based: Fetch() returns a PinnedPage view that borrows
// frame (or, unbuffered, file) memory — there is no page memcpy on a buffer
// hit, and the old copy-out Read(PageId, Page*) no longer exists.  Counter
// semantics are unchanged from the seed implementation: a Fetch that finds
// the page resident counts one hit, anything else counts one fault, and
// with buffering disabled (capacity 0, the paper's default configuration)
// every Fetch faults.
//
// Every read is synchronous, as in the paper's I/O model: a miss reads the
// page on the calling thread before Fetch() returns.  The only staging is
// the optional STR readahead (BufferOptions::readahead_pages), which runs
// inline after the demand page is pinned and feeds the prefetch_* counters.
//
// Concurrent Fetch()es from several query threads (the batch executor's
// shards) are safe: counters are atomic and the pool takes per-shard
// latches.  The counters are process-wide; a ThreadFetchCounter counts
// only its own thread's faults and hits, which is one query's I/O when
// queries run one per thread.  Structural mutation (Allocate / Write /
// ConfigureBuffer) is a single-threaded operation: trees are built before
// queries run against them.  A Pager is pinned in place (non-copyable,
// non-movable) — owners hold it behind a stable handle (see RStarTree) so
// in-flight pins and counter readers never observe a relocation.

#ifndef CONN_STORAGE_PAGER_H_
#define CONN_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace conn {
namespace storage {

class Pager;

/// Counts the faults and hits of the Pager::Fetch() calls the constructing
/// thread makes on one pager while the counter lives.  Counters live on a
/// per-thread list, so one must be destroyed on the thread that made it;
/// several may watch the same pager.
class ThreadFetchCounter {
 public:
  explicit ThreadFetchCounter(const Pager& pager);
  ~ThreadFetchCounter();

  ThreadFetchCounter(const ThreadFetchCounter&) = delete;
  ThreadFetchCounter& operator=(const ThreadFetchCounter&) = delete;

  uint64_t faults() const { return faults_; }
  uint64_t hits() const { return hits_; }

 private:
  friend class Pager;

  const Pager* pager_;
  ThreadFetchCounter* next_;  ///< the thread's next live counter
  uint64_t faults_ = 0;
  uint64_t hits_ = 0;
};

/// Buffered page accessor with fault accounting.
class Pager {
 public:
  Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;
  Pager(Pager&&) = delete;
  Pager& operator=(Pager&&) = delete;

  /// Allocates a fresh zeroed page on the underlying file.
  PageId Allocate() { return file_.Allocate(); }

  /// Number of pages in the underlying file (the "tree size" in pages).
  size_t PageCount() const { return file_.PageCount(); }

  /// Pins page \p id and returns a borrowed view of its bytes.  A resident
  /// page counts one hit (zero copies); a miss counts one fault, stages
  /// the page into the pool and then runs the configured readahead.
  /// Thread-safe against concurrent Fetch()es.
  StatusOr<PinnedPage> Fetch(PageId id);

  /// Writes page \p id through to the file and refreshes the pool.
  Status Write(PageId id, const Page& page);

  /// Reconfigures the buffer pool (capacity, eviction policy, readahead),
  /// dropping all cached pages.  Not thread-safe against in-flight reads;
  /// requires that no pins are live.
  void ConfigureBuffer(const BufferOptions& options) {
    pool_.Configure(options);
  }

  /// Sets the buffer capacity in pages (0 disables buffering, the default
  /// configuration of the paper's experiments), keeping the current policy
  /// and readahead settings.  Drops cached pages; see
  /// ConfigureBuffer().
  void SetBufferCapacity(size_t pages) {
    BufferOptions opts = pool_.options();
    opts.capacity_pages = pages;
    ConfigureBuffer(opts);
  }

  /// Drops buffered pages (and 2Q ghost history) without changing the
  /// configuration.  Requires that no pins are live.
  void ClearBuffer() { pool_.Clear(); }

  /// Zeroes the fault/hit/prefetch counters — warm-up phases call this so
  /// the measured half of a workload starts from a clean slate.
  /// Device-level counters (PageFile) are not affected.
  void ResetCounters();

  /// Page faults (buffer misses) since construction / ResetCounters().
  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }

  /// Buffer hits since construction / ResetCounters().
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Pages staged by readahead (after residency and bounds filtering).
  uint64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }

  /// Demand hits whose page was resident only because staging brought it
  /// in (first demand touch of a prefetched frame).
  uint64_t prefetch_hits() const { return pool_.prefetch_hits(); }

  /// Staged pages evicted before any demand touch (useless prefetch).
  uint64_t prefetch_wasted() const { return pool_.prefetch_wasted(); }

  /// The pool, for configuration inspection and tests.
  BufferPool& buffer_pool() { return pool_; }

  /// The backing file, for device-level counters.
  const PageFile& file() const { return file_; }

 private:
  /// Counts one fault or hit on the calling thread's live counters.
  void CountOnThread(bool fault) const;

  PageFile file_;
  BufferPool pool_;
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
};

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_PAGER_H_
