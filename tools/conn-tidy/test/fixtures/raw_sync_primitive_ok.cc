// conn-raw-sync-primitive must stay silent: the capability-annotated
// wrappers are the sanctioned latch surface, and common/mutex.h itself —
// where the raw primitives legitimately live — is on the check's
// AllowedFiles list.

#include "common/mutex.h"

namespace {

struct Queue {
  conn::Mutex mu;
  int depth GUARDED_BY(mu) = 0;
};

int Drain(Queue* q) {
  conn::MutexLock hold(q->mu);
  return q->depth;
}

}  // namespace

int main() {
  Queue q;
  return Drain(&q);
}
