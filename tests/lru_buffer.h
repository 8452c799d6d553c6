// LRU page buffer — the seed buffer manager, kept as the *reference model*
// for the buffer pool's exact-LRU mode.  Test-only: the production read
// path lives in storage/buffer_pool.h / storage/pager.h; this class is only
// used by property tests that replay randomized traces against both
// implementations and assert the hit/miss sequence and resident set match
// bit-for-bit (which is what makes the committed Fig. 12 fault counts
// reproducible).
//
// Capacity is configured in pages; the buffer-size experiment (Figure 12)
// expresses it as a percentage of the tree size.

#ifndef CONN_TESTS_LRU_BUFFER_H_
#define CONN_TESTS_LRU_BUFFER_H_

#include <list>
#include <unordered_map>
#include <utility>

#include "storage/page.h"

namespace conn {
namespace storage {

/// Fixed-capacity least-recently-used cache of pages.
class LruBuffer {
 public:
  /// Creates a buffer holding at most \p capacity pages (0 disables caching).
  explicit LruBuffer(size_t capacity = 0) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }

  /// Changes the capacity, evicting LRU pages if shrinking.
  void SetCapacity(size_t capacity);

  /// Looks up \p id; on hit copies the page into \p out, promotes it to
  /// most-recently-used, and returns true.
  bool Get(PageId id, Page* out);

  /// Residency probe without an LRU touch (for trace-equivalence tests).
  bool Contains(PageId id) const { return map_.count(id) > 0; }

  /// Inserts or refreshes \p id as most-recently-used (no-op if capacity 0).
  void Put(PageId id, const Page& page);

  /// Drops all cached pages (e.g., between benchmark configurations).
  void Clear();

 private:
  void EvictIfNeeded();

  size_t capacity_;
  // MRU at front.  Page payloads live in the list nodes.
  std::list<std::pair<PageId, Page>> lru_;
  std::unordered_map<PageId, std::list<std::pair<PageId, Page>>::iterator>
      map_;
};

}  // namespace storage
}  // namespace conn

#endif  // CONN_TESTS_LRU_BUFFER_H_
