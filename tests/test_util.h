// Shared helpers for the test suite: deterministic random scene generation,
// tree construction, and QueryStats comparison.

#ifndef CONN_TESTS_TEST_UTIL_H_
#define CONN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "datagen/datasets.h"
#include "geom/box.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"

namespace conn {
namespace testutil {

/// A randomized small scene: points, obstacles, and a query segment, all
/// within a compact test workspace so brute-force oracles stay fast.
struct Scene {
  geom::Rect domain;
  std::vector<geom::Vec2> points;
  std::vector<geom::Rect> obstacles;
  geom::Segment query;
};

/// Generates a scene with \p num_points points and \p num_obstacles
/// obstacles; obstacles are small axis-aligned rectangles that may overlap.
/// Points are displaced out of obstacle interiors.
inline Scene MakeScene(uint64_t seed, size_t num_points,
                       size_t num_obstacles, double query_len = 400.0) {
  Rng rng(seed);
  Scene s;
  s.domain = geom::Rect({0.0, 0.0}, {1000.0, 1000.0});
  for (size_t i = 0; i < num_obstacles; ++i) {
    const geom::Vec2 c{rng.Uniform(50.0, 950.0), rng.Uniform(50.0, 950.0)};
    const double w = rng.Uniform(5.0, 120.0);
    const double h = rng.Uniform(5.0, 120.0);
    s.obstacles.push_back(geom::Rect({c.x - w * 0.5, c.y - h * 0.5},
                                     {c.x + w * 0.5, c.y + h * 0.5}));
  }
  for (size_t i = 0; i < num_points; ++i) {
    s.points.push_back(
        {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
  }
  datagen::DisplacePointsOutsideObstacles(&s.points, s.obstacles,
                                          seed ^ 0xABCD);

  const geom::Vec2 start{rng.Uniform(100.0, 900.0),
                         rng.Uniform(100.0, 900.0)};
  const double theta = rng.Uniform(0.0, 6.283185307179586);
  geom::Vec2 end{start.x + query_len * std::cos(theta),
                 start.y + query_len * std::sin(theta)};
  end.x = std::clamp(end.x, 0.0, 1000.0);
  end.y = std::clamp(end.y, 0.0, 1000.0);
  s.query = geom::Segment(start, end);
  return s;
}

/// Bulk-loads a point tree from the scene.
inline rtree::RStarTree MakePointTree(const Scene& s) {
  auto result = rtree::StrBulkLoad(datagen::ToPointObjects(s.points));
  return std::move(result).value();
}

/// Bulk-loads an obstacle tree from the scene.
inline rtree::RStarTree MakeObstacleTree(const Scene& s) {
  auto result = rtree::StrBulkLoad(datagen::ToObstacleObjects(s.obstacles));
  return std::move(result).value();
}

/// Bulk-loads the unified (points + obstacles) tree of Section 4.5.
inline rtree::RStarTree MakeUnifiedTree(const Scene& s) {
  std::vector<rtree::DataObject> all = datagen::ToPointObjects(s.points);
  for (const rtree::DataObject& o : datagen::ToObstacleObjects(s.obstacles)) {
    all.push_back(o);
  }
  auto result = rtree::StrBulkLoad(std::move(all));
  return std::move(result).value();
}

/// Every integer field of QueryStats, by name.  A query's I/O fields count
/// only its own thread's page fetches; the prefetch_* fields are process-
/// wide but stay 0 without readahead.
inline std::vector<std::pair<std::string, uint64_t>> IntegerFields(
    const QueryStats& s) {
  return {{"data_page_reads", s.data_page_reads},
          {"obstacle_page_reads", s.obstacle_page_reads},
          {"buffer_hits", s.buffer_hits},
          {"prefetch_issued", s.prefetch_issued},
          {"prefetch_hits", s.prefetch_hits},
          {"prefetch_wasted", s.prefetch_wasted},
          {"points_evaluated", s.points_evaluated},
          {"obstacles_evaluated", s.obstacles_evaluated},
          {"vis_graph_vertices", s.vis_graph_vertices},
          {"dijkstra_runs", s.dijkstra_runs},
          {"dijkstra_settled", s.dijkstra_settled},
          {"visibility_tests", s.visibility_tests},
          {"seed_tests", s.seed_tests},
          {"scan_warm_restarts", s.scan_warm_restarts},
          {"tick_warm_starts", s.tick_warm_starts},
          {"tick_frontier_reuse", s.tick_frontier_reuse},
          {"cross_shard_store_hits", s.cross_shard_store_hits},
          {"repairs_applied", s.repairs_applied},
          {"tuples_carried", s.tuples_carried},
          {"tuples_rescored", s.tuples_rescored},
          {"frontier_shares", s.frontier_shares},
          {"vr_cache_evictions", s.vr_cache_evictions},
          {"split_evaluations", s.split_evaluations},
          {"lemma1_prunes", s.lemma1_prunes},
          {"lemma7_terminations", s.lemma7_terminations},
          {"lemma2_terminations", s.lemma2_terminations}};
}

}  // namespace testutil
}  // namespace conn

#endif  // CONN_TESTS_TEST_UTIL_H_
