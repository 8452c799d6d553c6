#include "vis/vis_graph.h"

#include <algorithm>

#include "common/check.h"

namespace conn {
namespace vis {

VisGraph::VisGraph(const geom::Rect& domain, QueryStats* stats)
    : vertex_grid_(domain, /*cells_per_side=*/64),
      obstacles_(domain),
      stats_(stats) {}

VertexId VisGraph::AddVertexInternal(geom::Vec2 p) {
  if (!free_slots_.empty()) {
    const VertexId id = free_slots_.back();
    free_slots_.pop_back();
    vertices_[id] = p;
    adj_[id].clear();
    reach_[id] = geom::Rect::FromPoint(p);
    corner_[id] = CornerInfo{};
    alive_[id] = true;
    vertex_grid_.InsertPoint(id, p);
    return id;
  }
  const VertexId id = static_cast<VertexId>(vertices_.size());
  vertices_.push_back(p);
  adj_.emplace_back();
  reach_.push_back(geom::Rect::FromPoint(p));
  corner_.emplace_back();
  alive_.push_back(true);
  vertex_grid_.InsertPoint(id, p);
  return id;
}

void VisGraph::PushReciprocal(VertexId u, VertexId v, double length) {
  adj_[u].push_back({v, length});
  reach_[u] = reach_[u].ExpandedToCover(vertices_[v]);
}

VertexId VisGraph::AddFixedVertex(geom::Vec2 p) {
  const VertexId id = AddVertexInternal(p);
  // Eager adjacency + reciprocal patching: a fixed vertex added *after*
  // obstacles (a later query's targets on a shard-shared graph) must appear
  // in every existing list, or cached-adjacency Dijkstra walks
  // could never reach it.
  RecomputeAdjacency(id);
  for (const VisEdge& e : adj_[id]) PushReciprocal(e.to, id, e.length);
  return id;
}

void VisGraph::RemoveFixedVertices(const std::vector<VertexId>& ids) {
  for (VertexId v : ids) {
    CONN_CHECK_MSG(v < vertices_.size() && alive_[v],
                   "removing a vertex that is not live");
    CONN_CHECK_MSG(!corner_[v].is_corner,
                   "obstacle corners are persistent; only fixed vertices "
                   "can be removed");
    // Symmetry invariant: exactly v's own neighbors hold an edge to v.
    for (const VisEdge& e : adj_[v]) {
      std::erase_if(adj_[e.to], [v](const VisEdge& r) { return r.to == v; });
    }
    adj_[v].clear();
    alive_[v] = false;
    vertex_grid_.RemovePoint(v, vertices_[v]);
    free_slots_.push_back(v);
  }
}

bool VisGraph::AddObstacle(const geom::Rect& rect, rtree::ObjectId id) {
  if (!obstacle_ids_.insert(id).second) {
    // Already present: a shard sibling's incremental retrieval fetched it.
    ++duplicate_obstacle_skips_;
    return false;
  }
  obstacles_.Add(rect, id);
  ++epoch_;  // visible-region caches must revalidate

  // (a) Prune cached edges the new rectangle now blocks.  Only edges
  // whose bounding box meets the rectangle can be affected (cheap
  // pre-filter); a list whose reach box misses the rectangle holds none.
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    // A dead (recycled) slot keeps its stale reach box; skip it.
    if (!alive_[v] || !reach_[v].Intersects(rect)) continue;
    const geom::Vec2 vpos = vertices_[v];
    std::erase_if(adj_[v], [&](const VisEdge& e) {
      const geom::Vec2 upos = vertices_[e.to];
      if (!geom::Rect::FromCorners(vpos, upos).Intersects(rect)) {
        return false;
      }
      if (stats_ != nullptr) ++stats_->visibility_tests;
      return geom::SegmentCrossesInterior(geom::Segment(vpos, upos), rect);
    });
  }

  // (b) Add the four corners, compute their adjacency now and patch the
  // reciprocal edges into the existing lists so every cached list
  // stays complete with respect to the grown graph.
  // Corners() yields (lo,lo), (hi,lo), (hi,hi), (lo,hi); inward axis signs
  // point from each corner into the rectangle.
  static constexpr geom::Vec2 kInward[4] = {
      {+1.0, +1.0}, {-1.0, +1.0}, {-1.0, -1.0}, {+1.0, -1.0}};
  const auto corners = rect.Corners();
  for (int ci = 0; ci < 4; ++ci) {
    const VertexId c = AddVertexInternal(corners[ci]);
    corner_[c] = CornerInfo{true, kInward[ci]};
    RecomputeAdjacency(c);
    for (const VisEdge& e : adj_[c]) PushReciprocal(e.to, c, e.length);
  }

  if (stats_ != nullptr) {
    ++stats_->obstacles_evaluated;
    stats_->vis_graph_vertices = vertices_.size();
  }
  return true;
}

bool VisGraph::Visible(geom::Vec2 a, geom::Vec2 b) const {
  return obstacles_.Visible(a, b,
                            stats_ ? &stats_->visibility_tests : nullptr);
}

void VisGraph::RecomputeAdjacency(VertexId v) {
  std::vector<VisEdge>& edges = adj_[v];
  edges.clear();
  const geom::Vec2 pos = vertices_[v];
  geom::Rect reach = geom::Rect::FromPoint(pos);
  uint64_t* const counter = stats_ ? &stats_->visibility_tests : nullptr;
  uint32_t hint = ObstacleSet::kNoBlocker;  // the last blocker found
  for (VertexId u = 0; u < vertices_.size(); ++u) {
    if (u == v || !alive_[u]) continue;
    const geom::Vec2 other = vertices_[u];
    const double len = geom::Dist(pos, other);
    if (len <= geom::kEpsDist) continue;  // coincident vertices: skip
    // O(1) rejection: the edge dives straight into either endpoint's own
    // rectangle (it would fail the sight-line walk anyway).
    if (DirectionEntersCorner(v, other - pos) ||
        DirectionEntersCorner(u, pos - other)) {
      continue;
    }
    const uint32_t blocker = obstacles_.Blocker(pos, other, hint, counter);
    if (blocker != ObstacleSet::kNoBlocker) {
      hint = blocker;
      continue;
    }
    edges.push_back({u, len});
    reach = reach.ExpandedToCover(other);
  }
  reach_[v] = reach;
}

}  // namespace vis
}  // namespace conn
