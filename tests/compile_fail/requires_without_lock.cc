// MUST NOT COMPILE (Clang, -Werror=thread-safety): calls a REQUIRES(mu)
// method without holding mu.  This is the annotation BufferPool's private
// helpers rely on ("must be called under the pool's latch").

#include "common/mutex.h"

namespace {

struct Counter {
  conn::Mutex mu;
  int value GUARDED_BY(mu) = 0;

  void Bump() REQUIRES(mu) { ++value; }
};

}  // namespace

int main() {
  Counter c;
  c.Bump();  // error: calling Bump() requires holding mutex 'mu'
  return 0;
}
