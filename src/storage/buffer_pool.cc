#include "storage/buffer_pool.h"

namespace conn {
namespace storage {

void PinnedPage::SetDecoded(std::shared_ptr<const void> obj) {
  decoded_ = obj;
  if (pool_ != nullptr) pool_->InstallDecoded(frame_, std::move(obj));
}

void PinnedPage::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
  data_ = nullptr;
  id_ = kInvalidPageId;
  decoded_.reset();
  owned_.reset();
}

void BufferPool::Configure(const BufferOptions& options) {
  for (const Frame& f : frames_) {
    CONN_CHECK_MSG(f.pins.load(std::memory_order_acquire) == 0,
                   "BufferPool::Configure with live pins");
  }
  options_ = options;
  const size_t cap = options.capacity_pages;
  frames_ = std::vector<Frame>(cap);
  // Configure is a single-threaded structural operation, but the latched
  // state still requires mu_ — take it (uncontended).
  MutexLock lock(mu_);
  table_.clear();
  lru_ = List{};
  free_frames_.clear();
  for (size_t i = 0; i < cap; ++i) {
    free_frames_.push_back(static_cast<uint32_t>(i));
  }
}

void BufferPool::Clear() {
  MutexLock lock(mu_);
  for (const auto& [id, f] : table_) {
    CONN_CHECK_MSG(frames_[f].pins.load(std::memory_order_acquire) == 0,
                   "BufferPool::Clear with live pins");
  }
  for (const auto& [id, f] : table_) {
    Frame& frame = frames_[f];
    frame.page_id = kInvalidPageId;
    frame.decoded.reset();
    Unlink(f);
    free_frames_.push_back(f);
  }
  table_.clear();
}

void BufferPool::Unlink(uint32_t frame) {
  Frame& f = frames_[frame];
  if (f.prev != kNullFrame) {
    frames_[f.prev].next = f.next;
  } else {
    lru_.head = f.next;
  }
  if (f.next != kNullFrame) {
    frames_[f.next].prev = f.prev;
  } else {
    lru_.tail = f.prev;
  }
  f.prev = f.next = kNullFrame;
}

void BufferPool::PushFront(uint32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNullFrame;
  f.next = lru_.head;
  if (lru_.head != kNullFrame) frames_[lru_.head].prev = frame;
  lru_.head = frame;
  if (lru_.tail == kNullFrame) lru_.tail = frame;
}

uint32_t BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    const uint32_t f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  uint32_t f = lru_.tail;
  while (f != kNullFrame &&
         frames_[f].pins.load(std::memory_order_acquire) != 0) {
    f = frames_[f].prev;  // pinned frames are never evicted
  }
  if (f == kNullFrame) return kNullFrame;
  Frame& frame = frames_[f];
  if (frame.prefetched) {
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
  }
  table_.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  frame.decoded.reset();
  Unlink(f);
  return f;
}

bool BufferPool::TryGet(PageId id, PinnedPage* out) {
  if (capacity() == 0) return false;
  MutexLock lock(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return false;
  const uint32_t f = it->second;
  Frame& frame = frames_[f];
  if (frame.prefetched) {
    frame.prefetched = false;
    prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  Unlink(f);
  PushFront(f);
  PinInto(f, id, out);
  return true;
}

void BufferPool::PinInto(uint32_t f, PageId id, PinnedPage* out) {
  Frame& frame = frames_[f];
  frame.pins.fetch_add(1, std::memory_order_acq_rel);
  out->Release();
  out->pool_ = this;
  out->frame_ = f;
  out->data_ = &frame.page;
  out->id_ = id;
  out->decoded_ = frame.decoded;
}

uint32_t BufferPool::StageFrame(PageId id, const Page& src) {
  const uint32_t f = AcquireFrame();
  if (f == kNullFrame) return kNullFrame;  // every frame pinned
  Frame& frame = frames_[f];
  frame.page = src;  // the simulated disk-to-frame transfer
  frame.page_id = id;
  frame.prefetched = false;  // Insert overrides for readahead staging
  table_.emplace(id, f);
  PushFront(f);
  return f;
}

bool BufferPool::Insert(PageId id, const Page& src, PinnedPage* out) {
  if (capacity() == 0) return false;
  MutexLock lock(mu_);
  uint32_t f = kNullFrame;
  auto it = table_.find(id);
  if (it != table_.end()) {
    // Another thread staged this page between our miss and now; reuse it
    // (the content is identical — pages are immutable during reads).
    f = it->second;
  } else {
    f = StageFrame(id, src);
    if (f == kNullFrame) return false;
    frames_[f].prefetched = (out == nullptr);
  }
  if (out != nullptr) {
    frames_[f].prefetched = false;  // demand reference
    PinInto(f, id, out);
  }
  return true;
}

void BufferPool::PutForWrite(PageId id, const Page& src) {
  if (capacity() == 0) return;
  MutexLock lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    const uint32_t f = it->second;
    Frame& frame = frames_[f];
    CONN_DCHECK(frame.pins.load(std::memory_order_acquire) == 0);
    frame.page = src;
    frame.decoded.reset();  // the cached parse no longer matches the bytes
    Unlink(f);
    PushFront(f);
    return;
  }
  StageFrame(id, src);  // fully pinned => stays write-through only
}

bool BufferPool::Resident(PageId id) {
  if (capacity() == 0) return false;
  MutexLock lock(mu_);
  return table_.count(id) > 0;
}

size_t BufferPool::ResidentPages() {
  MutexLock lock(mu_);
  return table_.size();
}

size_t BufferPool::PinnedFrames() {
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.pins.load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

void BufferPool::Unpin(uint32_t frame) {
  // Release ordering publishes the reader's byte accesses to the next
  // evictor, whose acquire load of the zero pin count synchronizes here.
  frames_[frame].pins.fetch_sub(1, std::memory_order_release);
}

void BufferPool::InstallDecoded(uint32_t frame,
                                std::shared_ptr<const void> obj) {
  // The caller holds a pin, so the frame cannot be evicted or recycled.
  MutexLock lock(mu_);
  frames_[frame].decoded = std::move(obj);
}

}  // namespace storage
}  // namespace conn
