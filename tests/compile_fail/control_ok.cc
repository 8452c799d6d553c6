// Positive control for the negative-compilation harness: exercises every
// construct the fail cases abuse, used *correctly*, under the full warning
// flag set.  Must always compile — if it stops compiling, the harness (or
// an include path / flag) is broken, not the production code.

#include "common/mutex.h"
#include "common/status.h"
#include "storage/page_file.h"
#include "storage/pager.h"

namespace {

struct Counter {
  conn::Mutex mu;
  int value GUARDED_BY(mu) = 0;

  void Bump() REQUIRES(mu) { ++value; }
};

int LockedRead(Counter& c) {
  conn::MutexLock lock(c.mu);
  c.Bump();
  return c.value;
}

conn::Status ConsumedStatus(conn::storage::PageFile& f) {
  conn::storage::Page p;
  CONN_RETURN_IF_ERROR(f.Write(f.Allocate(), p));
  return conn::Status::OK();
}

double ConsumedStatusOr(conn::storage::Pager& pager) {
  conn::StatusOr<conn::storage::PinnedPage> view = pager.Fetch(0);
  if (!view.ok()) return -1.0;
  return static_cast<double>(view.value().id());
}

}  // namespace

int main() {
  Counter c;
  conn::storage::PageFile file;
  conn::storage::Pager pager;
  (void)LockedRead(c);
  // Explicit void casts are the sanctioned discard idiom (and themselves
  // part of the control: they must stay warning-free).
  (void)ConsumedStatus(file);
  (void)ConsumedStatusOr(pager);
  return 0;
}
