#include "vis/dijkstra.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geom/distance.h"
#include "geom/predicates.h"

namespace conn {
namespace vis {

DijkstraScan::DijkstraScan(VisGraph* graph, geom::Vec2 source)
    : graph_(graph),
      source_(source),
      owned_arena_(std::make_unique<ScanArena>()),
      arena_(owned_arena_.get()) {
  Begin();
}

DijkstraScan::DijkstraScan(VisGraph* graph, geom::Vec2 source,
                           ScanArena* arena)
    : graph_(graph), source_(source), arena_(arena) {
  CONN_CHECK_MSG(!arena_->in_use_,
                 "ScanArena admits one live scan at a time");
  Begin();
}

DijkstraScan::~DijkstraScan() { arena_->in_use_ = false; }

void DijkstraScan::Begin() {
  arena_->in_use_ = true;
  epoch_ = ++arena_->epoch_;
  arena_->EnsureCapacity(graph_->VertexCount());
  arena_->heap_.clear();
  arena_->pending_.clear();
  arena_->log_.clear();
  settled_count_ = 0;
  next_cursor_ = 0;
  rings_done_ = 0;
  graph_epoch_ = graph_->epoch();
}

double DijkstraScan::NextSeedLowerBound() const {
  double lb = graph_->vertex_grid().RingMinDist(source_, rings_done_);
  if (!arena_->pending_.empty()) {
    lb = std::min(lb, arena_->pending_.front().euclid);
  }
  return lb;
}

void DijkstraScan::EmitRing(int ring) {
  arena_->EnsureCapacity(graph_->VertexCount());
  graph_->vertex_grid().VisitRing(source_, ring, [&](uint32_t item) {
    const VertexId v = item;
    if (!graph_->IsAlive(v)) return;
    if (arena_->seeded_stamp_[v] == epoch_) return;
    arena_->seeded_stamp_[v] = epoch_;
    arena_->pending_.push_back(
        {geom::Dist(source_, graph_->VertexPos(v)), v});
    std::push_heap(arena_->pending_.begin(), arena_->pending_.end(),
                   std::greater<>());
  });
}

void DijkstraScan::ExpandRingsUpTo(double bound) {
  const GridIndex& grid = graph_->vertex_grid();
  while (true) {
    const double rmin = grid.RingMinDist(source_, rings_done_);
    if (std::isinf(rmin) || rmin > bound) break;
    EmitRing(rings_done_);
    ++rings_done_;
  }
}

void DijkstraScan::TrySeed(VertexId v, double euclid) {
  if (euclid <= geom::kEpsDist) {
    // Source coincides with the vertex: trivially reachable.
    Push(v, euclid, kPredSource);
    return;
  }
  const geom::Vec2 pos = graph_->VertexPos(v);
  if (graph_->DirectionEntersCorner(v, source_ - pos)) return;
  if (QueryStats* stats = graph_->stats()) ++stats->seed_tests;
  if (graph_->Visible(source_, pos)) Push(v, euclid, kPredSource);
}

void DijkstraScan::SeedUpTo(double bound) {
  ExpandRingsUpTo(bound);
  auto& pending = arena_->pending_;
  while (!pending.empty() && pending.front().euclid <= bound) {
    const ScanArena::SeedCand cand = pending.front();
    std::pop_heap(pending.begin(), pending.end(), std::greater<>());
    pending.pop_back();
    TrySeed(cand.v, cand.euclid);
  }
}

void DijkstraScan::Push(VertexId v, double dist, int32_t pred) {
  if (arena_->dist_stamp_[v] != epoch_ || dist < arena_->dist_[v]) {
    arena_->dist_[v] = dist;
    arena_->pred_[v] = pred;
    arena_->dist_stamp_[v] = epoch_;
    arena_->heap_.push_back({dist, v});
    std::push_heap(arena_->heap_.begin(), arena_->heap_.end(),
                   std::greater<>());
  }
}

bool DijkstraScan::PrepareTop() {
  CONN_CHECK_MSG(graph_->epoch() == graph_epoch_,
                 "graph gained obstacles mid-scan; start a new scan");
  // Fixed vertices patched in mid-scan don't bump the epoch; make sure the
  // per-vertex arrays cover them before relaxation touches their slots.
  arena_->EnsureCapacity(graph_->VertexCount());
  auto& heap = arena_->heap_;
  while (true) {
    while (!heap.empty() &&
           arena_->settled_stamp_[heap.front().v] == epoch_) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
    }
    const double seed_lb = NextSeedLowerBound();
    if (heap.empty()) {
      if (seed_lb == kInf) return false;
      SeedUpTo(seed_lb);
      continue;
    }
    // Invariant: before settling at distance D, every vertex whose direct
    // source edge could be shorter (euclid <= D) must have been seeded.
    if (seed_lb <= heap.front().dist) {
      SeedUpTo(heap.front().dist);
      continue;
    }
    return true;
  }
}

double DijkstraScan::PeekDist() {
  if (next_cursor_ < arena_->log_.size()) {
    return arena_->log_[next_cursor_].dist;
  }
  if (!PrepareTop()) return kInf;
  return arena_->heap_.front().dist;
}

bool DijkstraScan::SettleOne() {
  if (!PrepareTop()) return false;
  auto& heap = arena_->heap_;
  const ScanArena::HeapItem top = heap.front();
  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  heap.pop_back();
  arena_->settled_stamp_[top.v] = epoch_;
  ++settled_count_;
  for (const VisEdge& e : graph_->Neighbors(top.v)) {
    if (arena_->settled_stamp_[e.to] != epoch_) {
      Push(e.to, top.dist + e.length, static_cast<int32_t>(top.v));
    }
  }
  arena_->log_.push_back({top.v, top.dist, arena_->pred_[top.v]});
  return true;
}

bool DijkstraScan::EnsureSettled(size_t i) {
  while (arena_->log_.size() <= i) {
    if (!SettleOne()) return false;
  }
  return true;
}

bool DijkstraScan::Next(VertexId* v, double* dist, int32_t* pred) {
  if (!EnsureSettled(next_cursor_)) return false;
  const Settled& entry = arena_->log_[next_cursor_++];
  *v = entry.v;
  *dist = entry.dist;
  *pred = entry.pred;
  return true;
}

double DijkstraScan::SettleTargets(const std::vector<VertexId>& targets) {
  // Mark the unique, not-yet-settled targets and count them; settlement
  // pops then pay O(1) per vertex instead of a linear target search.
  // Already-settled log entries between the read cursor and the log end
  // (left by an earlier consumer) never decrement the counter, because
  // only unsettled targets are marked.
  const uint64_t mark = ++arena_->target_epoch_;
  size_t remaining = 0;
  for (VertexId t : targets) {
    CONN_CHECK(t < arena_->target_stamp_.size());
    if (arena_->target_stamp_[t] == mark) continue;  // duplicate target id
    if (!IsSettled(t)) {
      arena_->target_stamp_[t] = mark;
      ++remaining;
    }
  }
  VertexId v = 0;
  double d = 0.0;
  int32_t pred = kPredNone;
  while (remaining > 0 && Next(&v, &d, &pred)) {
    if (arena_->target_stamp_[v] == mark) {
      arena_->target_stamp_[v] = 0;
      --remaining;
    }
  }
  double max_dist = 0.0;
  for (VertexId t : targets) {
    max_dist = std::max(max_dist, DistOf(t));
  }
  return max_dist;
}

}  // namespace vis
}  // namespace conn
