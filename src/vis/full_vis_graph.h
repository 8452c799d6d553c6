// Global (complete) visibility graph — the classical baseline of Section
// 2.4.  Holds every obstacle corner plus any number of extra points, with
// all-pairs visibility edges materialized eagerly and visibility tested by
// brute force against the whole obstacle set.
//
// Complexity is O(V^2 * |O|) to build and O(V^2) space, exactly the
// scalability problem the paper's local visibility graph avoids.  In this
// library it serves as (a) the ground-truth obstructed-distance oracle for
// property tests, (b) the "FULL" size baseline of Figures 9(b)-12(d), and
// (c) the eager contender in the visibility-graph ablation benchmark.

#ifndef CONN_VIS_FULL_VIS_GRAPH_H_
#define CONN_VIS_FULL_VIS_GRAPH_H_

#include <vector>

#include "common/check.h"
#include "geom/box.h"
#include "vis/vis_graph.h"

namespace conn {
namespace vis {

/// Complete visibility graph over a fixed obstacle set.
class FullVisGraph {
 public:
  /// Registers the obstacle set; every rectangle contributes 4 corner
  /// vertices (so VertexCount() starts at 4*|O|, the paper's FULL size).
  explicit FullVisGraph(std::vector<geom::Rect> obstacles);

  /// Adds an extra vertex (data point, query endpoint, sample point).
  /// Must be called before Build().
  VertexId AddPoint(geom::Vec2 p);

  /// Materializes all-pairs visibility edges.
  void Build();

  size_t VertexCount() const { return vertices_.size(); }
  geom::Vec2 VertexPos(VertexId v) const { return vertices_[v]; }

  /// Brute-force sight-line test against every obstacle.
  bool Visible(geom::Vec2 a, geom::Vec2 b) const;

  /// Materialized adjacency of \p v (the oracle local graphs are checked
  /// against).  Requires Build().
  const std::vector<VisEdge>& Neighbors(VertexId v) const {
    CONN_CHECK_MSG(built_, "Neighbors before Build()");
    return adj_[v];
  }

  /// Single-source shortest-path distances to every vertex (+infinity for
  /// unreachable).  Requires Build().
  std::vector<double> DistancesFrom(VertexId src) const;

  /// Distances from an arbitrary location that is not a graph vertex: a
  /// virtual source seeded with every directly visible vertex.  Requires
  /// Build().
  std::vector<double> DistancesFromLocation(geom::Vec2 source) const;

  /// Shortest obstructed distance between two vertices.  Requires Build().
  double Distance(VertexId src, VertexId dst) const;

 private:
  std::vector<geom::Rect> obstacles_;
  std::vector<geom::Vec2> vertices_;
  std::vector<std::vector<VisEdge>> adj_;
  bool built_ = false;
};

}  // namespace vis
}  // namespace conn

#endif  // CONN_VIS_FULL_VIS_GRAPH_H_
