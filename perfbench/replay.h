// Traced replay of the two-tree COkNN query, for the benchmark's per-layer
// run.
//
// core::CoknnQuery gives one number per query.  To say where that time
// goes without touching the engine, the replay re-assembles the query loop
// of core/coknn.cc (CoknnQueryImpl + RunCoknn with repair off) from the
// engine's public pieces — BestFirstIterator, IncrementalObstacleRetrieval,
// ComputeControlPointList, KnnResultList, QuerySession and the inline
// helpers of core/engine_internal.h — and times every call into them.
//
// Inside IOR the replay wraps the obstacle stream in a timing decorator:
// the time between a pull that returned an obstacle and the next pull is
// exactly VisGraph::AddObstacle, and IOR's remaining self time is the
// Dijkstra scan (SettleTargets, Revalidate, lazy adjacency).
//
// The replay is only trustworthy while it still *is* the engine's loop, so
// every caller compares its answer bit for bit, and its QueryStats
// counters, against core::CoknnQuery on the same segment.

#ifndef CONN_PERFBENCH_REPLAY_H_
#define CONN_PERFBENCH_REPLAY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/coknn.h"
#include "core/options.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace perfbench {

/// The layer boundaries a span can mark.  kQuery is the root of one query;
/// every other span is a descendant of it.
enum class Layer : uint8_t {
  kQuery,         ///< the whole query call
  kQuerySetup,    ///< graph, blocked intervals, targets, result list
  kPointStream,   ///< BestFirstIterator over the data tree
  kIor,           ///< IncrementalObstacleRetrieval (inclusive)
  kObstaclePull,  ///< one pull from the obstacle tree stream
  kAddObstacle,   ///< VisGraph::AddObstacle, between two pulls
  kCplc,          ///< ComputeControlPointList
  kMerge,         ///< KnnResultList::RlMax / Update
};
inline constexpr size_t kLayerCount = 8;

const char* LayerName(Layer layer);

/// One timed interval.  \p parent indexes the enclosing span in the same
/// log (-1 for a query root); times are steady-clock nanoseconds.
struct Span {
  Layer layer = Layer::kQuery;
  uint32_t query = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  /// Starts a span now and returns its index for Close().
  int32_t Open(Layer layer, uint32_t query, int32_t parent);
  void Close(int32_t index);

  /// Adds a span whose end points were taken by the caller.
  void Record(Layer layer, uint32_t query, int32_t parent, int64_t start_ns,
              int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (a span's duration minus its children's), in
  /// seconds, indexed by Layer.  The kQuery entry is the unattributed
  /// remainder; the entries sum to the total query time.
  std::array<double, kLayerCount> SelfSeconds() const;

  /// Inclusive time of every span of \p layer, in seconds.
  double TotalSeconds(Layer layer) const;

  /// Spans of \p layer.
  size_t Count(Layer layer) const;

  /// Writes every span as JSON; false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Counts taken by the obstacle-stream decorator during traced replays.
struct StreamCounts {
  uint64_t pulls = 0;     ///< NextObstacleWithin calls
  uint64_t streamed = 0;  ///< pulls that returned an obstacle
};

/// core::CoknnQuery(data_tree, obstacle_tree, q, k, opts) with a fresh
/// local graph, replayed with one span per layer call recorded into \p log
/// under \p query_id.
core::CoknnResult TracedCoknnQuery(const rtree::RStarTree& data_tree,
                                   const rtree::RStarTree& obstacle_tree,
                                   const geom::Segment& q, size_t k,
                                   const core::ConnOptions& opts,
                                   uint32_t query_id, SpanLog* log,
                                   StreamCounts* counts);

/// True iff the two answers are bit-identical: the same tuples (range ends,
/// candidate ids, control points and offsets) and unreachable pieces.
bool SameAnswer(const core::CoknnResult& a, const core::CoknnResult& b);

/// True iff every deterministic counter of the two stats is equal (all of
/// QueryStats except the measured cpu_seconds).
bool SameCounters(const QueryStats& a, const QueryStats& b);

}  // namespace perfbench
}  // namespace conn

#endif  // CONN_PERFBENCH_REPLAY_H_
