#include "core/cnn.h"

#include "common/timer.h"
#include "core/engine_internal.h"
#include "rtree/best_first.h"

namespace conn {
namespace core {

ConnResult CnnQuery(const rtree::RStarTree& data_tree, const geom::Segment& q,
                    const ConnOptions& opts) {
  Timer timer;
  QueryStats stats;
  internal::PagerDelta data_io(data_tree.pager());

  ConnResult result;
  result.query = q;
  const geom::Interval all_of_q(0.0, q.Length());
  const geom::IntervalSet reachable{all_of_q};
  ResultList rl(reachable, opts.use_lemma1_prune);
  rtree::BestFirstIterator points(data_tree, q);
  auto next_point = [&](double bound, rtree::DataObject* out, double* dist) {
    return internal::PopPointWithin(&points, bound, out, dist);
  };
  // Obstacle-free space: p is its own control point over all of q.
  auto control_points = [&](geom::Vec2 p) {
    return ControlPointList{CplEntry{kThisPoint, p, 0.0, all_of_q}};
  };
  internal::RunMainLoop(reachable, geom::SegmentFrame(q), opts, &stats, &rl,
                        next_point, control_points);
  result.tuples = internal::ConnTuples(rl);

  stats.data_page_reads = data_io.faults();
  stats.buffer_hits = data_io.hits();
  internal::AddPrefetchStats(data_io, &stats);
  stats.cpu_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return result;
}

}  // namespace core
}  // namespace conn
