#include "lru_buffer.h"

namespace conn {
namespace storage {

void LruBuffer::SetCapacity(size_t capacity) {
  capacity_ = capacity;
  EvictIfNeeded();
}

bool LruBuffer::Get(PageId id, Page* out) {
  auto it = map_.find(id);
  if (it == map_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  *out = it->second->second;
  return true;
}

void LruBuffer::Put(PageId id, const Page& page) {
  if (capacity_ == 0) return;
  auto it = map_.find(id);
  if (it != map_.end()) {
    it->second->second = page;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(id, page);
  map_[id] = lru_.begin();
  EvictIfNeeded();
}

void LruBuffer::Clear() {
  lru_.clear();
  map_.clear();
}

void LruBuffer::EvictIfNeeded() {
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

}  // namespace storage
}  // namespace conn
