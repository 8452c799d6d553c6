#include "storage/pager.h"

#include "common/check.h"

namespace conn {
namespace storage {

namespace {

/// Head of the calling thread's list of live ThreadFetchCounters.
thread_local ThreadFetchCounter* thread_counters = nullptr;

}  // namespace

ThreadFetchCounter::ThreadFetchCounter(const Pager& pager)
    : pager_(&pager), next_(thread_counters) {
  thread_counters = this;
}

ThreadFetchCounter::~ThreadFetchCounter() {
  ThreadFetchCounter** link = &thread_counters;
  while (*link != this) {
    CONN_CHECK_MSG(*link != nullptr,
                   "ThreadFetchCounter destroyed off its own thread");
    link = &(*link)->next_;
  }
  *link = next_;
}

void Pager::CountOnThread(bool fault) const {
  for (ThreadFetchCounter* c = thread_counters; c != nullptr; c = c->next_) {
    if (c->pager_ == this) ++(fault ? c->faults_ : c->hits_);
  }
}

void Pager::ResetCounters() {
  faults_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  prefetch_issued_.store(0, std::memory_order_relaxed);
  pool_.ResetPrefetchCounters();
}

StatusOr<PinnedPage> Pager::Fetch(PageId id) {
  if (pool_.capacity() == 0) {
    // Unbuffered (the paper's default configuration): every read faults and
    // the view aliases the file's stable page storage — no copy at all.
    const Page* view = nullptr;
    CONN_RETURN_IF_ERROR(file_.View(id, &view));
    faults_.fetch_add(1, std::memory_order_relaxed);
    CountOnThread(/*fault=*/true);
    return PinnedPage::Direct(id, view);
  }

  PinnedPage out;
  if (pool_.TryGet(id, &out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CountOnThread(/*fault=*/false);
    return out;
  }

  const Page* src = nullptr;
  CONN_RETURN_IF_ERROR(file_.View(id, &src));
  faults_.fetch_add(1, std::memory_order_relaxed);
  CountOnThread(/*fault=*/true);
  if (!pool_.Insert(id, *src, &out)) {
    // Every candidate frame is pinned: serve a handle-owned copy without
    // caching it (and skip readahead — further staging attempts would
    // burn device reads against the same pinned-full pool).  Rare — it
    // takes as many concurrently pinned pages as the pool has frames.
    return PinnedPage::Overflow(id, *src);
  }

  // Optional readahead: stage the immediately following ids (STR bulk
  // loading lays a level's siblings out contiguously).  Staged pages count
  // device reads, not faults; a later demand access counts a hit and one
  // prefetch hit.
  const size_t ra = pool_.options().readahead_pages;
  for (size_t i = 1; i <= ra; ++i) {
    const PageId next = id + static_cast<PageId>(i);
    if (next >= file_.PageCount()) break;
    if (pool_.Resident(next)) continue;
    const Page* ra_src = nullptr;
    if (!file_.View(next, &ra_src).ok()) break;
    if (!pool_.Insert(next, *ra_src, /*out=*/nullptr)) break;
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

Status Pager::Write(PageId id, const Page& page) {
  CONN_RETURN_IF_ERROR(file_.Write(id, page));
  pool_.PutForWrite(id, page);
  return Status::OK();
}

}  // namespace storage
}  // namespace conn
