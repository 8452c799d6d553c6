// Dijkstra shortest paths over a local visibility graph, from a transient
// source point (the data point p currently being evaluated).
//
// The source is deliberately NOT inserted as a graph vertex: CONN evaluates
// a fresh data point p for every heap pop (Algorithm 4 lines 6/9 insert and
// remove p), and keeping p out of the vertex set means the per-epoch
// adjacency cache of the persistent vertices stays valid across data points.
//
// DijkstraScan is incremental — CPLC (Algorithm 2) consumes vertices in
// ascending obstructed distance ||p, v|| and stops at CPLMAX (Lemma 7), so
// the scan settles only what the caller demands.
//
// Scans run on a ScanArena: a pooled, epoch-stamped set of per-vertex
// arrays plus reusable heap/log storage.  Starting a scan is O(1) in the
// graph size (bump the epoch) instead of the former O(V) array assign +
// O(V log V) full sort of the seed order; seeding is driven by the
// visibility graph's vertex grid, expanding square distance rings so the
// work is output-sensitive in the vertices actually reached.  One arena
// serves every scan of a query — or of a whole shard of queries when the
// batch executor shares a core::QueryWorkspace.

#ifndef CONN_VIS_DIJKSTRA_H_
#define CONN_VIS_DIJKSTRA_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "vis/vis_graph.h"

namespace conn {
namespace vis {

/// Sentinel predecessor meaning "the transient source point".
inline constexpr int32_t kPredSource = -2;

/// Sentinel predecessor meaning "not reached".
inline constexpr int32_t kPredNone = -1;

/// One settled vertex in settlement (ascending distance) order.
struct ScanSettled {
  VertexId v;
  double dist;
  int32_t pred;  // kPredSource or a vertex id
};

/// Reusable scan state, shared by consecutive DijkstraScans (one at a
/// time).  All per-vertex arrays are epoch-stamped: a slot is meaningful
/// for the current scan only when its stamp matches the scan's epoch, so a
/// new scan "clears" them by bumping the epoch — O(touched) total work per
/// scan instead of O(V) re-initialization.  The heap / log / seed buffers
/// keep their capacity across scans.
class ScanArena {
 public:
  ScanArena() = default;
  ScanArena(const ScanArena&) = delete;
  ScanArena& operator=(const ScanArena&) = delete;

 private:
  friend class DijkstraScan;

  struct HeapItem {
    double dist;
    VertexId v;
    // Min-heap order with deterministic (dist, v) tie-breaking, so the
    // settlement order never depends on insertion order.
    bool operator>(const HeapItem& o) const {
      if (dist != o.dist) return dist > o.dist;
      return v > o.v;
    }
  };

  struct SeedCand {
    double euclid;
    VertexId v;
    bool operator>(const SeedCand& o) const {
      if (euclid != o.euclid) return euclid > o.euclid;
      return v > o.v;
    }
  };

  void EnsureCapacity(size_t n) {
    if (dist_.size() < n) {
      dist_.resize(n);
      pred_.resize(n);
      dist_stamp_.resize(n, 0);
      settled_stamp_.resize(n, 0);
      seeded_stamp_.resize(n, 0);
      target_stamp_.resize(n, 0);
    }
  }

  uint64_t epoch_ = 0;         ///< current scan's stamp value
  uint64_t target_epoch_ = 0;  ///< per-SettleTargets-call stamp value
  bool in_use_ = false;        ///< one live scan per arena

  // Epoch-stamped per-vertex state (valid iff stamp == epoch_).
  std::vector<double> dist_;
  std::vector<int32_t> pred_;
  std::vector<uint64_t> dist_stamp_;
  std::vector<uint64_t> settled_stamp_;
  std::vector<uint64_t> seeded_stamp_;  ///< entered the pending seed pool
  std::vector<uint64_t> target_stamp_;  ///< SettleTargets bitmap

  // Reusable buffers (cleared per scan, capacity retained).
  std::vector<HeapItem> heap_;      ///< binary min-heap (std::*_heap)
  std::vector<SeedCand> pending_;   ///< binary min-heap of unseeded cands
  std::vector<ScanSettled> log_;    ///< settlement log, ascending
};

/// Incremental single-source shortest-path scan.
///
/// Settled vertices are logged, so one scan can serve several consumers:
/// IOR settles up to its target bound via Next()/SettleTargets(), and CPLC
/// later replays the same settlement order from the beginning through
/// EnsureSettled()/log() and extends it on demand — no re-seeding.
class DijkstraScan {
 public:
  using Settled = ScanSettled;

  /// Starts a scan from \p source over \p graph on a private arena
  /// (convenience for tests and one-shot callers).
  DijkstraScan(VisGraph* graph, geom::Vec2 source);

  /// Starts a scan from \p source over \p graph on \p arena.  The arena
  /// admits one live scan at a time and must outlive it.  A scan reads
  /// the graph as it was when the scan started: once obstacles are added,
  /// the scan must not advance — destroy it and start a new one.
  DijkstraScan(VisGraph* graph, geom::Vec2 source, ScanArena* arena);

  ~DijkstraScan();

  DijkstraScan(const DijkstraScan&) = delete;
  DijkstraScan& operator=(const DijkstraScan&) = delete;

  /// The source location this scan was seeded from.
  geom::Vec2 source() const { return source_; }

  /// Settles and returns the next vertex in ascending distance order.
  /// \p pred receives kPredSource when the shortest path is the direct
  /// sight-line from the source.  Returns false when no vertex remains
  /// reachable.
  bool Next(VertexId* v, double* dist, int32_t* pred);

  /// Ensures at least \p i + 1 vertices are settled; false when the graph
  /// is exhausted first.
  bool EnsureSettled(size_t i);

  /// Settlement log (grows as the scan advances).
  const std::vector<Settled>& log() const { return arena_->log_; }

  /// Distance of the next vertex to be settled (+infinity if none).
  double PeekDist();

  /// Settled distance of \p v (+infinity while unsettled/unreachable).
  double DistOf(VertexId v) const {
    return IsSettled(v) ? arena_->dist_[v] : kInf;
  }

  bool IsSettled(VertexId v) const {
    return v < arena_->settled_stamp_.size() &&
           arena_->settled_stamp_[v] == epoch_;
  }

  /// Predecessor of a settled vertex (kPredSource / vertex id).
  int32_t PredOf(VertexId v) const { return arena_->pred_[v]; }

  /// Runs the scan until every id in \p targets is settled or the graph is
  /// exhausted; returns the maximum target distance (+infinity when some
  /// target is unreachable).
  double SettleTargets(const std::vector<VertexId>& targets);

  /// Number of vertices settled so far.
  size_t SettledCount() const { return settled_count_; }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Resets all scan state onto a fresh arena epoch.
  void Begin();

  void Push(VertexId v, double dist, int32_t pred);

  /// Settles one more vertex into the log; false when exhausted.
  bool SettleOne();

  /// Pops stale heap entries and interleaves lazy seeding until the heap
  /// top is the true next settlement; false when the scan is exhausted.
  bool PrepareTop();

  /// Seeds direct source->vertex edges for every vertex whose Euclidean
  /// distance (a lower bound of its seed edge) is <= \p bound.  Lazy: a
  /// scan terminated early by its caller (CPLMAX, IOR target bound) never
  /// pays sight-line walks for vertices beyond its reach.
  void SeedUpTo(double bound);

  /// Tests the direct source sight-line of \p v and pushes the seed edge
  /// when visible.
  void TrySeed(VertexId v, double euclid);

  /// Moves every live, not-yet-pending vertex of grid ring \p ring into
  /// the pending seed pool.
  void EmitRing(int ring);

  /// Expands grid rings until everything within \p bound is pending.
  void ExpandRingsUpTo(double bound);

  /// Lower bound on the Euclidean distance of any vertex that has not yet
  /// been seeded (+infinity when seeding is exhausted).
  double NextSeedLowerBound() const;

  VisGraph* graph_;
  geom::Vec2 source_;
  std::unique_ptr<ScanArena> owned_arena_;  ///< convenience-ctor storage
  ScanArena* arena_;
  uint64_t epoch_ = 0;  ///< arena epoch this scan stamps with

  size_t settled_count_ = 0;
  size_t next_cursor_ = 0;  // read position of Next() within the log
  int rings_done_ = 0;      // grid rings already emitted into pending

  uint64_t graph_epoch_ = 0;  // graph epoch the scan started on
};

}  // namespace vis
}  // namespace conn

#endif  // CONN_VIS_DIJKSTRA_H_
