#include "vis/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace conn {
namespace vis {

GridIndex::GridIndex(const geom::Rect& domain, int cells_per_side)
    : domain_(domain), n_(cells_per_side) {
  CONN_CHECK_MSG(cells_per_side >= 1, "grid needs at least one cell");
  CONN_CHECK_MSG(domain.IsValid(), "grid domain must be a valid rect");
  cell_w_ = std::max(domain_.Width() / n_, 1e-12);
  cell_h_ = std::max(domain_.Height() / n_, 1e-12);
  cells_.resize(static_cast<size_t>(n_) * n_);
}

int GridIndex::ClampCellX(double x) const {
  const int c = static_cast<int>(std::floor((x - domain_.lo.x) / cell_w_));
  return std::clamp(c, 0, n_ - 1);
}

int GridIndex::ClampCellY(double y) const {
  const int c = static_cast<int>(std::floor((y - domain_.lo.y) / cell_h_));
  return std::clamp(c, 0, n_ - 1);
}

void GridIndex::Insert(uint32_t item, const geom::Rect& rect) {
  CONN_CHECK_MSG(item == item_count_, "grid items must be inserted densely");
  ++item_count_;
  stamp_.push_back(0);
  const int x0 = ClampCellX(rect.lo.x), x1 = ClampCellX(rect.hi.x);
  const int y0 = ClampCellY(rect.lo.y), y1 = ClampCellY(rect.hi.y);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) CellAt(cx, cy).push_back(item);
  }
}

void GridIndex::InsertPoint(uint32_t item, geom::Vec2 p) {
  if (item >= stamp_.size()) stamp_.resize(item + 1, 0);
  item_count_ = std::max(item_count_, static_cast<size_t>(item) + 1);
  CellAt(ClampCellX(p.x), ClampCellY(p.y)).push_back(item);
}

void GridIndex::RemovePoint(uint32_t item, geom::Vec2 p) {
  std::vector<uint32_t>& cell = CellAt(ClampCellX(p.x), ClampCellY(p.y));
  const auto it = std::find(cell.begin(), cell.end(), item);
  CONN_CHECK_MSG(it != cell.end(), "RemovePoint: item not in its cell");
  cell.erase(it);
}

double GridIndex::RingMinDist(geom::Vec2 center, int ring) const {
  if (ring <= 0) return 0.0;
  const int cx = ClampCellX(center.x), cy = ClampCellY(center.y);
  // Cells with ring index >= `ring` lie outside the (2*ring-1)-cell block
  // centered on (cx, cy).  Per side, the separating coordinate line bounds
  // the distance of anything beyond it; sides whose block edge already
  // leaves the grid contribute no cells.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best = kInf;
  if (cx - ring + 1 > 0) {
    best = std::min(
        best, center.x - (domain_.lo.x + (cx - ring + 1) * cell_w_));
  }
  if (cx + ring - 1 < n_ - 1) {
    best = std::min(best, (domain_.lo.x + (cx + ring) * cell_w_) - center.x);
  }
  if (cy - ring + 1 > 0) {
    best = std::min(
        best, center.y - (domain_.lo.y + (cy - ring + 1) * cell_h_));
  }
  if (cy + ring - 1 < n_ - 1) {
    best = std::min(best, (domain_.lo.y + (cy + ring) * cell_h_) - center.y);
  }
  if (best == kInf) return kInf;  // rings < ring already cover the grid
  return std::max(0.0, best);
}

void GridIndex::BeginQuery() const { ++epoch_; }

void GridIndex::EmitCell(int cx, int cy, std::vector<uint32_t>* out) const {
  for (uint32_t item : CellAt(cx, cy)) {
    if (stamp_[item] == epoch_) continue;
    stamp_[item] = epoch_;
    out->push_back(item);
  }
}

void GridIndex::CandidatesAlongSegment(const geom::Segment& s,
                                       std::vector<uint32_t>* out) const {
  VisitAlongSegment(s, [out](uint32_t item) {
    out->push_back(item);
    return true;
  });
}

void GridIndex::CandidatesInRect(const geom::Rect& r,
                                 std::vector<uint32_t>* out) const {
  BeginQuery();
  const int x0 = ClampCellX(r.lo.x), x1 = ClampCellX(r.hi.x);
  const int y0 = ClampCellY(r.lo.y), y1 = ClampCellY(r.hi.y);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) EmitCell(cx, cy, out);
  }
}

void GridIndex::CandidatesAtPoint(geom::Vec2 p,
                                  std::vector<uint32_t>* out) const {
  BeginQuery();
  EmitCell(ClampCellX(p.x), ClampCellY(p.y), out);
}

}  // namespace vis
}  // namespace conn
