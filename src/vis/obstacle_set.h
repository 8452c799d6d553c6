// The local obstacle store backing a visibility graph: the obstacles
// retrieved so far by IOR, indexed by a uniform grid for fast sight-line
// (blocking) tests.

#ifndef CONN_VIS_OBSTACLE_SET_H_
#define CONN_VIS_OBSTACLE_SET_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/interval_set.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "rtree/entry.h"
#include "vis/grid_index.h"

namespace conn {
namespace vis {

/// Growable set of axis-aligned rectangular obstacles with spatial queries.
class ObstacleSet {
 public:
  /// \p domain should cover the workspace (queries clamp into it).
  explicit ObstacleSet(const geom::Rect& domain, int grid_cells_per_side = 64);

  /// Adds an obstacle.  Returns its dense local index.
  uint32_t Add(const geom::Rect& rect, rtree::ObjectId id);

  size_t size() const { return rects_.size(); }
  const geom::Rect& rect(uint32_t i) const { return rects_[i]; }
  rtree::ObjectId id(uint32_t i) const { return ids_[i]; }

  /// True iff the open segment (a, b) is not blocked by any obstacle
  /// interior (Definition 1).  A grid walk from a toward b tests the
  /// obstacles it meets and stops at the first that blocks.
  /// \p test_counter, when non-null, is incremented once per exact
  /// segment-vs-obstacle test performed.
  bool Visible(geom::Vec2 a, geom::Vec2 b,
               uint64_t* test_counter = nullptr) const;

  /// True iff \p p lies strictly inside some obstacle.
  bool PointInAnyInterior(geom::Vec2 p) const;

  /// Candidate obstacle indices near a segment / inside a rect (grid
  /// over-approximation; callers run exact tests).
  void CandidatesAlongSegment(const geom::Segment& s,
                              std::vector<uint32_t>* out) const;
  void CandidatesInRect(const geom::Rect& r,
                        std::vector<uint32_t>* out) const;

  /// Parameter intervals of \p s (arc-length in [0, s.Length()]) lying
  /// strictly inside obstacle interiors — the unreachable part of a query
  /// segment that crosses obstacles.
  geom::IntervalSet BlockedIntervalsOnSegment(const geom::Segment& s) const;

 private:
  GridIndex grid_;
  std::vector<geom::Rect> rects_;
  std::vector<rtree::ObjectId> ids_;
  mutable std::vector<uint32_t> scratch_;
};

}  // namespace vis
}  // namespace conn

#endif  // CONN_VIS_OBSTACLE_SET_H_
