// Positive control for the project-invariant rules: the *sanctioned* APIs
// the fail cases route around, used correctly, under the full flag set.
// Scan state is touched only through ScanArena + DijkstraScan, and the
// latch is the capability-annotated conn::Mutex.  Must always compile.

#include "common/mutex.h"
#include "vis/dijkstra.h"

namespace {

struct GuardedLog {
  conn::Mutex mu;
  double furthest GUARDED_BY(mu) = 0.0;
};

// A new scan on the arena, once the previous one has gone out of scope, is
// how epochs move — never by touching the stamp arrays.
double FurthestSettled(conn::vis::VisGraph* graph, GuardedLog* out) {
  conn::vis::ScanArena arena;
  conn::vis::VertexId v = 0;
  double dist = 0.0;
  int32_t pred = 0;
  double last = 0.0;
  {
    conn::vis::DijkstraScan scan(graph, {0.0, 0.0}, &arena);
    while (scan.Next(&v, &dist, &pred)) last = dist;
  }
  conn::vis::DijkstraScan rescan(graph, {0.0, 0.0}, &arena);
  while (rescan.Next(&v, &dist, &pred)) last = dist;
  conn::MutexLock lock(out->mu);
  out->furthest = last;
  return last;
}

}  // namespace

int main() {
  GuardedLog log;
  (void)FurthestSettled(nullptr, &log);
  return 0;
}
