#include "vis/obstacle_set.h"

#include "common/check.h"

namespace conn {
namespace vis {

ObstacleSet::ObstacleSet(const geom::Rect& domain, int grid_cells_per_side)
    : grid_(domain, grid_cells_per_side) {}

uint32_t ObstacleSet::Add(const geom::Rect& rect, rtree::ObjectId id) {
  CONN_CHECK_MSG(rect.IsValid(), "obstacle rect must be valid");
  const uint32_t index = static_cast<uint32_t>(rects_.size());
  rects_.push_back(rect);
  ids_.push_back(id);
  grid_.Insert(index, rect);
  return index;
}

bool ObstacleSet::Visible(geom::Vec2 a, geom::Vec2 b,
                          uint64_t* test_counter) const {
  const geom::Segment sight(a, b);
  uint64_t tests = 0;
  // Streaming walk from a toward b: the first blocking obstacle ends the
  // test, so long blocked sight-lines (the common case in dense fields)
  // cost only the distance to their first blocker.
  const bool visible = grid_.VisitAlongSegment(sight, [&](uint32_t i) {
    ++tests;
    return !geom::SegmentCrossesInterior(sight, rects_[i]);
  });
  if (test_counter != nullptr) *test_counter += tests;
  return visible;
}

bool ObstacleSet::PointInAnyInterior(geom::Vec2 p) const {
  scratch_.clear();
  grid_.CandidatesAtPoint(p, &scratch_);
  for (uint32_t i : scratch_) {
    if (geom::PointInInterior(p, rects_[i])) return true;
  }
  return false;
}

void ObstacleSet::CandidatesAlongSegment(const geom::Segment& s,
                                         std::vector<uint32_t>* out) const {
  grid_.CandidatesAlongSegment(s, out);
}

void ObstacleSet::CandidatesInRect(const geom::Rect& r,
                                   std::vector<uint32_t>* out) const {
  grid_.CandidatesInRect(r, out);
}

geom::IntervalSet ObstacleSet::BlockedIntervalsOnSegment(
    const geom::Segment& s) const {
  std::vector<geom::Interval> blocked;
  scratch_.clear();
  grid_.CandidatesAlongSegment(s, &scratch_);
  for (uint32_t i : scratch_) {
    const geom::Interval span = geom::InteriorSpan(s, rects_[i]);
    if (!span.IsEmpty()) blocked.push_back(span);
  }
  return geom::IntervalSet(std::move(blocked));
}

}  // namespace vis
}  // namespace conn
