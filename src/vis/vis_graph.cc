#include "vis/vis_graph.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace conn {
namespace vis {

namespace {

// The angular shadow map of RecomputeAdjacency (see vis_graph.h).
// Directions are binned by diamond pseudo-angle in [0, 4): it is monotone
// in the true angle, a half-turn is exactly 2, and its slope against the
// angle is at most 1, so a margin in pseudo-angle is at least as large in
// radians.
constexpr int kShadowBins = 512;
constexpr double kBinsPerUnit = kShadowBins / 4.0;
// An obstacle covers a bin only if its span reaches this far past both bin
// edges: every direction in the bin then passes its silhouette corners at
// an angle whose sine (>= ~1e-7) bounds the relative gap between the
// Liang-Barsky entry and exit parameters far above their rounding error.
constexpr double kShadowMargin = 1e-7;
// A candidate is hidden only if its squared distance exceeds the bin's
// value by this relative slack, so the crossing ends well before it.
constexpr double kShadowSlack = 1e-9;
// Obstacles whose shrunk side is below this fraction of their distance
// are left out: their entry and exit parameters along the thin axis could
// round into each other.
constexpr double kShadowThin = 1e-8;

double DiamondAngle(geom::Vec2 d) {
  const double s = std::abs(d.x) + std::abs(d.y);
  if (d.y >= 0.0) return d.x >= 0.0 ? d.y / s : 1.0 - d.x / s;
  return d.x < 0.0 ? 2.0 - d.y / s : 3.0 + d.x / s;
}

int ShadowBin(geom::Vec2 d) {
  return std::min(kShadowBins - 1,
                  static_cast<int>(DiamondAngle(d) * kBinsPerUnit));
}

/// Per bin of directions around a viewer at \p pos, the squared distance
/// beyond which an obstacle of \p obstacles covering the whole bin hides
/// every point (+infinity where none does).
using ShadowMap = std::array<double, kShadowBins>;

ShadowMap BuildShadowMap(const ObstacleSet& obstacles, geom::Vec2 pos) {
  constexpr double kTol = 2.0 * geom::kEpsInterior;
  ShadowMap shadow;
  shadow.fill(std::numeric_limits<double>::infinity());
  for (uint32_t i = 0; i < obstacles.size(); ++i) {
    const geom::Rect& r = obstacles.rect(i);
    // The shrunk rectangle SegmentCrossesInterior clips against, relative
    // to pos and rounded exactly like its Liang-Barsky terms.
    const double x0 = (r.lo.x + geom::kEpsInterior) - pos.x;
    const double x1 = (r.hi.x - geom::kEpsInterior) - pos.x;
    const double y0 = (r.lo.y + geom::kEpsInterior) - pos.y;
    const double y1 = (r.hi.y - geom::kEpsInterior) - pos.y;
    if (!(x0 < x1 && y0 < y1)) continue;  // thinner than 2*kEpsInterior
    // Contains pos or lies within tolerance of it: no proper span.
    if (x0 < kTol && x1 > -kTol && y0 < kTol && y1 > -kTol) continue;
    const double max_d2 =
        std::max(x0 * x0, x1 * x1) + std::max(y0 * y0, y1 * y1);
    const double thin = std::min(x1 - x0, y1 - y0);
    if (thin * thin <= kShadowThin * kShadowThin * max_d2) continue;
    // The span of corner pseudo-angles, unwrapped around the first
    // corner's: pos lies outside, so the span is below a half-turn and
    // every corner is within 2 of the first.
    const double base = DiamondAngle({x0, y0});
    double lo = 0.0, hi = 0.0;
    for (const geom::Vec2 c : {geom::Vec2{x1, y0}, geom::Vec2{x1, y1},
                               geom::Vec2{x0, y1}}) {
      double d = DiamondAngle(c) - base;
      if (d >= 2.0) {
        d -= 4.0;
      } else if (d < -2.0) {
        d += 4.0;
      }
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    if (hi - lo >= 2.0 - kShadowMargin) continue;  // near a half-turn
    // Bins [first, end) lie inside the span by the margin; the indices may
    // run below 0 or past the last bin when the span wraps through 0.
    const int first = static_cast<int>(
        std::ceil((base + lo + kShadowMargin) * kBinsPerUnit));
    const int end = static_cast<int>(
        std::floor((base + hi - kShadowMargin) * kBinsPerUnit));
    for (int k = first; k < end; ++k) {
      double& bin = shadow[(k + kShadowBins) % kShadowBins];
      bin = std::min(bin, max_d2);
    }
  }
  return shadow;
}

}  // namespace

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
  const geom::Vec2 inner{rect.Width() - geom::kEpsInterior,
                         rect.Height() - geom::kEpsInterior};
  const auto corners = rect.Corners();
  for (int ci = 0; ci < 4; ++ci) {
    const VertexId c = AddVertexInternal(corners[ci]);
    const geom::Vec2 p = corners[ci];
    const double big = std::max(std::abs(p.x), std::abs(p.y));
    corner_[c] = CornerInfo{true, kInward[ci], inner, 1e-12 * (1.0 + big)};
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
  const ShadowMap shadow = BuildShadowMap(obstacles_, pos);
  geom::Rect reach = geom::Rect::FromPoint(pos);
  for (VertexId u = 0; u < vertices_.size(); ++u) {
    if (u == v || !alive_[u]) continue;
    const geom::Vec2 other = vertices_[u];
    const double len = geom::Dist(pos, other);
    if (len <= geom::kEpsDist) continue;  // coincident vertices: skip
    // O(1) rejection: the edge dives straight into either endpoint's own
    // rectangle (it would fail the sight-line walk anyway).
    const geom::Vec2 d = other - pos;
    if (DirectionEntersCorner(v, d) || DirectionEntersCorner(u, pos - other)) {
      continue;
    }
    // Beyond an obstacle that covers its whole bin: the sight line crosses
    // that obstacle's interior before reaching u.
    if (d.Norm2() > shadow[ShadowBin(d)] * (1.0 + kShadowSlack)) continue;
    if (!Visible(pos, other)) continue;
    edges.push_back({u, len});
    reach = reach.ExpandedToCover(other);
  }
  reach_[v] = reach;
}

}  // namespace vis
}  // namespace conn
