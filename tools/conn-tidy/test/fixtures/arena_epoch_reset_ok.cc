// conn-arena-epoch-reset must stay silent: scan state moves only through
// the arena API — construct a new scan on the arena (epoch bump) once the
// previous one has gone out of scope.

#include "vis/dijkstra.h"

namespace {

double FurthestSettled(conn::vis::VisGraph* graph) {
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
  return last;
}

}  // namespace

int main() {
  (void)&FurthestSettled;
  return 0;
}
