#include "replay.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/timer.h"
#include "core/cpl.h"
#include "core/engine_internal.h"
#include "core/odist.h"
#include "rtree/best_first.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace conn {
namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Obstacle-stream decorator: one kObstaclePull span per pull, and one
/// kAddObstacle span from each pull that yielded an obstacle to the next
/// pull — IOR's loop does nothing in between but VisGraph::AddObstacle.
class TimedObstacleSource : public core::ObstacleSource {
 public:
  TimedObstacleSource(core::ObstacleSource* inner, SpanLog* log,
                      uint32_t query, StreamCounts* counts)
      : inner_(inner), log_(log), query_(query), counts_(counts) {}

  /// Parents the following pulls under the IOR span \p ior.
  void set_parent(int32_t ior) { parent_ = ior; }

  bool NextObstacleWithin(double bound, rtree::DataObject* out,
                          double* dist) override {
    const int64_t enter = NowNs();
    if (yielded_) {
      log_->Record(Layer::kAddObstacle, query_, parent_, yielded_at_, enter);
    }
    const bool got = inner_->NextObstacleWithin(bound, out, dist);
    const int64_t leave = NowNs();
    log_->Record(Layer::kObstaclePull, query_, parent_, enter, leave);
    ++counts_->pulls;
    if (got) ++counts_->streamed;
    yielded_ = got;
    yielded_at_ = leave;
    return got;
  }

 private:
  core::ObstacleSource* inner_;
  SpanLog* log_;
  uint32_t query_;
  StreamCounts* counts_;
  int32_t parent_ = -1;
  bool yielded_ = false;
  int64_t yielded_at_ = 0;
};

/// The body of core::CoknnQueryImpl + RunCoknn for a fresh local graph and
/// no repair hooks, with every layer call wrapped in a span under \p root.
/// Statement order and object lifetimes follow coknn.cc, so the counters
/// the engine accumulates come out equal.
core::CoknnResult ReplayBody(const rtree::RStarTree& data_tree,
                             const rtree::RStarTree& obstacle_tree,
                             const geom::Segment& q, size_t k,
                             const core::ConnOptions& opts, uint32_t id,
                             int32_t root, SpanLog* log,
                             StreamCounts* counts) {
  Timer timer;
  QueryStats stats;
  const int32_t setup = log->Open(Layer::kQuerySetup, id, root);
  core::internal::PagerDelta data_io(data_tree.pager());
  core::internal::PagerDelta obstacle_io(obstacle_tree.pager());
  core::internal::ScopedQueryGraph graph(nullptr, &data_tree, &obstacle_tree,
                                         q, &stats);
  vis::VisGraph* vg = graph.get();
  core::TreeObstacleSource tree_source(obstacle_tree, q);
  TimedObstacleSource source(&tree_source, log, id, counts);
  const geom::IntervalSet blocked =
      core::internal::BlockedIntervals(obstacle_tree, q);
  rtree::BestFirstIterator points(data_tree, q);

  core::CoknnResult result;
  result.query = q;
  result.k = k;
  {
    const geom::SegmentFrame frame(q);
    const geom::IntervalSet reachable = core::internal::ReachablePieces(
        blocked, q.Length(), &result.unreachable);
    vis::QuerySession session(vg);
    const std::vector<vis::VertexId> targets =
        core::internal::AddTargetVertices(&session, reachable, q);
    core::KnnResultList rl(reachable, k);
    core::VisibleRegionCache vr_cache;
    log->Close(setup);

    double retrieved = 0.0;
    rtree::DataObject obj;
    double dist = 0.0;
    while (true) {
      int32_t span = log->Open(Layer::kMerge, id, root);
      const double bound = opts.use_rlmax_terminate ? rl.RlMax(frame) : kInf;
      log->Close(span);

      span = log->Open(Layer::kPointStream, id, root);
      core::StreamOutcome outcome = core::StreamOutcome::kYielded;
      const double peek = points.PeekDist();
      if (peek == kInf) {
        outcome = core::StreamOutcome::kExhausted;
      } else if (peek > bound) {
        outcome = core::StreamOutcome::kBoundReached;
      } else {
        CONN_CHECK(points.Next(&obj, &dist));
        CONN_CHECK_MSG(obj.kind == rtree::ObjectKind::kPoint,
                       "data tree contains a non-point entry");
      }
      log->Close(span);
      if (outcome != core::StreamOutcome::kYielded) {
        if (outcome == core::StreamOutcome::kBoundReached) {
          ++stats.lemma2_terminations;
        }
        break;
      }
      ++stats.points_evaluated;
      const geom::Vec2 p = obj.AsPoint();

      std::unique_ptr<vis::DijkstraScan> scan;
      span = log->Open(Layer::kIor, id, root);
      source.set_parent(span);
      core::IncrementalObstacleRetrieval(&source, vg, targets, p, &retrieved,
                                         &stats, &scan, graph.arena(),
                                         opts.use_warm_scan_restarts);
      log->Close(span);

      span = log->Open(Layer::kCplc, id, root);
      const core::ControlPointList cpl = core::ComputeControlPointList(
          vg, scan.get(), p, frame, reachable, opts, &stats, &vr_cache);
      log->Close(span);

      span = log->Open(Layer::kMerge, id, root);
      rl.Update(static_cast<int64_t>(obj.id), cpl, frame, &stats);
      log->Close(span);
    }
    stats.vr_cache_evictions += vr_cache.evictions();
    result.tuples = rl.tuples();
  }

  stats.vis_graph_vertices = vg->VertexCount();
  stats.data_page_reads = data_io.faults();
  stats.obstacle_page_reads = obstacle_io.faults();
  stats.buffer_hits = data_io.hits() + obstacle_io.hits();
  core::internal::AddPrefetchStats(data_io, &stats);
  core::internal::AddPrefetchStats(obstacle_io, &stats);
  stats.cpu_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return result;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameIntervals(const std::vector<geom::Interval>& a,
                   const std::vector<geom::Interval>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].lo, b[i].lo) || !SameBits(a[i].hi, b[i].hi)) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery:
      return "query";
    case Layer::kQuerySetup:
      return "query_setup";
    case Layer::kPointStream:
      return "point_stream";
    case Layer::kIor:
      return "ior";
    case Layer::kObstaclePull:
      return "obstacle_pull";
    case Layer::kAddObstacle:
      return "add_obstacle";
    case Layer::kCplc:
      return "cplc";
    case Layer::kMerge:
      return "merge";
  }
  return "?";
}

int32_t SpanLog::Open(Layer layer, uint32_t query, int32_t parent) {
  spans_.push_back(Span{layer, query, parent, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void SpanLog::Record(Layer layer, uint32_t query, int32_t parent,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{layer, query, parent, start_ns, end_ns});
}

std::array<double, kLayerCount> SpanLog::SelfSeconds() const {
  std::array<double, kLayerCount> self{};
  for (const Span& s : spans_) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    self[static_cast<size_t>(s.layer)] += dur;
    if (s.parent >= 0) {
      const Layer parent = spans_[static_cast<size_t>(s.parent)].layer;
      self[static_cast<size_t>(parent)] -= dur;
    }
  }
  return self;
}

double SpanLog::TotalSeconds(Layer layer) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == layer) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

size_t SpanLog::Count(Layer layer) const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.layer == layer ? 1 : 0;
  return n;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"query\": %u, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, LayerName(s.layer), s.query, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

core::CoknnResult TracedCoknnQuery(const rtree::RStarTree& data_tree,
                                   const rtree::RStarTree& obstacle_tree,
                                   const geom::Segment& q, size_t k,
                                   const core::ConnOptions& opts,
                                   uint32_t query_id, SpanLog* log,
                                   StreamCounts* counts) {
  // The root closes after ReplayBody returns, so tearing down the local
  // graph is inside the query, as it is for core::CoknnQuery.
  const int32_t root = log->Open(Layer::kQuery, query_id, -1);
  core::CoknnResult result = ReplayBody(data_tree, obstacle_tree, q, k, opts,
                                        query_id, root, log, counts);
  log->Close(root);
  return result;
}

bool SameAnswer(const core::CoknnResult& a, const core::CoknnResult& b) {
  if (a.k != b.k || a.tuples.size() != b.tuples.size()) return false;
  if (!SameIntervals(a.unreachable.intervals(), b.unreachable.intervals())) {
    return false;
  }
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    const core::CoknnTuple& ta = a.tuples[i];
    const core::CoknnTuple& tb = b.tuples[i];
    if (!SameIntervals({ta.range}, {tb.range}) ||
        ta.candidates.size() != tb.candidates.size()) {
      return false;
    }
    for (size_t c = 0; c < ta.candidates.size(); ++c) {
      const core::KnnCandidate& ca = ta.candidates[c];
      const core::KnnCandidate& cb = tb.candidates[c];
      if (ca.pid != cb.pid || !SameBits(ca.cp.x, cb.cp.x) ||
          !SameBits(ca.cp.y, cb.cp.y) || !SameBits(ca.offset, cb.offset)) {
        return false;
      }
    }
  }
  return true;
}

// A field added to QueryStats must be added to SameCounters too.
static_assert(sizeof(QueryStats) == 27 * sizeof(uint64_t),
              "QueryStats changed: update SameCounters");

bool SameCounters(const QueryStats& a, const QueryStats& b) {
  return a.data_page_reads == b.data_page_reads &&
         a.obstacle_page_reads == b.obstacle_page_reads &&
         a.buffer_hits == b.buffer_hits &&
         a.prefetch_issued == b.prefetch_issued &&
         a.prefetch_hits == b.prefetch_hits &&
         a.prefetch_wasted == b.prefetch_wasted &&
         a.points_evaluated == b.points_evaluated &&
         a.obstacles_evaluated == b.obstacles_evaluated &&
         a.vis_graph_vertices == b.vis_graph_vertices &&
         a.dijkstra_runs == b.dijkstra_runs &&
         a.dijkstra_settled == b.dijkstra_settled &&
         a.visibility_tests == b.visibility_tests &&
         a.seed_tests == b.seed_tests &&
         a.scan_warm_restarts == b.scan_warm_restarts &&
         a.tick_warm_starts == b.tick_warm_starts &&
         a.tick_frontier_reuse == b.tick_frontier_reuse &&
         a.cross_shard_store_hits == b.cross_shard_store_hits &&
         a.repairs_applied == b.repairs_applied &&
         a.tuples_carried == b.tuples_carried &&
         a.tuples_rescored == b.tuples_rescored &&
         a.frontier_shares == b.frontier_shares &&
         a.vr_cache_evictions == b.vr_cache_evictions &&
         a.split_evaluations == b.split_evaluations &&
         a.lemma1_prunes == b.lemma1_prunes &&
         a.lemma7_terminations == b.lemma7_terminations &&
         a.lemma2_terminations == b.lemma2_terminations;
}

}  // namespace perfbench
}  // namespace conn
