#include "storage/page_file.h"

namespace conn {
namespace storage {

PageId PageFile::Allocate() {
  pages_.push_back(std::make_unique<Page>());
  return static_cast<PageId>(pages_.size() - 1);
}

Status PageFile::View(PageId id, const Page** out) const {
  if (id >= pages_.size()) {
    return Status::NotFound("PageFile::View: page " + std::to_string(id) +
                            " not allocated");
  }
  device_reads_.fetch_add(1, std::memory_order_relaxed);
  *out = pages_[id].get();
  return Status::OK();
}

Status PageFile::Read(PageId id, Page* out) const {
  const Page* view = nullptr;
  CONN_RETURN_IF_ERROR(View(id, &view));
  *out = *view;
  return Status::OK();
}

Status PageFile::Write(PageId id, const Page& page) {
  if (id >= pages_.size()) {
    return Status::NotFound("PageFile::Write: page " + std::to_string(id) +
                            " not allocated");
  }
  ++device_writes_;
  *pages_[id] = page;
  return Status::OK();
}

}  // namespace storage
}  // namespace conn
