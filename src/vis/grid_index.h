// Uniform grid over the workspace for the *local* obstacle subset held by a
// visibility graph.  Supports the two hot queries of the visibility
// machinery: "which obstacles could block this sight-line segment?" (an
// exact column-by-column walk over the cells the segment crosses) and
// "which obstacles could cover this rectangle / point?".
//
// The grid returns candidate item indices (deduplicated via an epoch stamp);
// exact geometry tests are the caller's job.

#ifndef CONN_VIS_GRID_INDEX_H_
#define CONN_VIS_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/box.h"
#include "geom/segment.h"

namespace conn {
namespace vis {

/// Spatial hash over a fixed domain with a fixed resolution.
class GridIndex {
 public:
  /// Covers \p domain with cells_per_side x cells_per_side cells.  Items
  /// outside the domain are clamped into the border cells (still correct,
  /// possibly slower).
  GridIndex(const geom::Rect& domain, int cells_per_side);

  /// Registers item \p item with bounding box \p rect in every overlapped
  /// cell.  Item indices must be dense (0, 1, 2, ...).
  void Insert(uint32_t item, const geom::Rect& rect);

  /// Registers point item \p item in its single containing cell.  Unlike
  /// Insert, ids need not arrive densely and may be reused after
  /// RemovePoint — the update path for recycled visibility-graph vertex
  /// slots.
  void InsertPoint(uint32_t item, geom::Vec2 p);

  /// Unregisters a point item previously added at \p p via InsertPoint.
  void RemovePoint(uint32_t item, geom::Vec2 p);

  size_t item_count() const { return item_count_; }

  /// Appends (deduplicated) candidate items whose cells the segment passes
  /// through, in VisitAlongSegment order.  Any item intersecting the
  /// segment is guaranteed included.
  void CandidatesAlongSegment(const geom::Segment& s,
                              std::vector<uint32_t>* out) const;

  /// Visits (deduplicated) candidate items in walk order from s.a toward
  /// s.b and stops as soon as \p visit returns false.  Returns false iff
  /// the walk was stopped early.  This is the hot path of the visibility
  /// predicate — a blocked sight-line exits at its first blocker instead
  /// of paying for the full segment length.
  ///
  /// The walk is an exact, conservative cell traversal: column by column
  /// in the direction of travel, and within each column only the rows the
  /// segment's y-range inside that column covers (rows also in the
  /// direction of travel).  Both ranges are padded by kWalkPad of a cell
  /// and clamped the way Insert clamps, so every point of the segment lies
  /// in a visited cell even under rounding; the border columns and rows
  /// extend to +-infinity because out-of-domain items live there.
  template <typename Visitor>
  bool VisitAlongSegment(const geom::Segment& s, Visitor&& visit) const {
    BeginQuery();
    const geom::Vec2 d = s.Delta();
    const double pad_x = kWalkPad * cell_w_, pad_y = kWalkPad * cell_h_;
    const int row_step = d.y < 0.0 ? -1 : 1;
    // Rows of column cx from the entry height y_in to the exit height y_out.
    auto visit_column = [&](int cx, double y_in, double y_out) {
      const int last = ClampCellY(y_out + row_step * pad_y);
      for (int cy = ClampCellY(y_in - row_step * pad_y);; cy += row_step) {
        for (uint32_t item : CellAt(cx, cy)) {
          if (stamp_[item] == epoch_) continue;
          stamp_[item] = epoch_;
          if (!visit(item)) return false;
        }
        if (cy == last) return true;
      }
    };
    if (d.x == 0.0) {  // vertical or zero-length: the column(s) at s.a.x
      const int last = ClampCellX(s.a.x + pad_x);
      for (int cx = ClampCellX(s.a.x - pad_x); cx <= last; ++cx) {
        if (!visit_column(cx, s.a.y, s.b.y)) return false;
      }
      return true;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int col_step = d.x < 0.0 ? -1 : 1;
    const int last = ClampCellX(s.b.x + col_step * pad_x);
    for (int cx = ClampCellX(s.a.x - col_step * pad_x);; cx += col_step) {
      // The segment's parameter range inside the padded column slab.
      const double x_lo =
          cx == 0 ? -kInf : domain_.lo.x + cx * cell_w_ - pad_x;
      const double x_hi =
          cx == n_ - 1 ? kInf : domain_.lo.x + (cx + 1) * cell_w_ + pad_x;
      double t_in = (x_lo - s.a.x) / d.x, t_out = (x_hi - s.a.x) / d.x;
      if (col_step < 0) std::swap(t_in, t_out);
      t_in = std::clamp(t_in, 0.0, 1.0);
      t_out = std::clamp(t_out, 0.0, 1.0);
      if (!visit_column(cx, s.a.y + t_in * d.y, s.a.y + t_out * d.y)) {
        return false;
      }
      if (cx == last) return true;
    }
  }

  /// Appends (deduplicated) candidate items whose cells overlap \p r.
  void CandidatesInRect(const geom::Rect& r,
                        std::vector<uint32_t>* out) const;

  /// Appends (deduplicated) candidate items in the cell containing \p p.
  void CandidatesAtPoint(geom::Vec2 p, std::vector<uint32_t>* out) const;

  // --- expanding-ring enumeration (output-sensitive Dijkstra seeding) ---
  //
  // Rings are square (Chebyshev) shells of cells around the cell containing
  // \p center: ring 0 is that cell, ring r the perimeter of the
  // (2r+1) x (2r+1) block.  Enumerating rings in order yields every item
  // eventually, and RingMinDist gives a monotone lower bound on the
  // Euclidean distance of anything not yet enumerated — the contract the
  // lazy-seeding scan needs to stop after O(items reached) work.

  /// Lower bound on the distance from \p center to any point of any cell
  /// with ring index >= \p ring; +infinity once rings < \p ring already
  /// cover the whole grid.  Valid for clamped (out-of-domain) items too:
  /// clamping only moves coordinates inward, so an item stored in a ring-r
  /// cell is at least this far from \p center.
  double RingMinDist(geom::Vec2 center, int ring) const;

  /// Visits every item registered in a cell of ring \p ring around
  /// \p center.  Items are visited once per cell they occupy (point items:
  /// exactly once); no cross-call deduplication.
  template <typename Visitor>
  void VisitRing(geom::Vec2 center, int ring, Visitor&& visit) const {
    const int cx = ClampCellX(center.x), cy = ClampCellY(center.y);
    auto emit = [&](int x, int y) {
      if (x < 0 || x >= n_ || y < 0 || y >= n_) return;
      for (uint32_t item : CellAt(x, y)) visit(item);
    };
    if (ring == 0) {
      emit(cx, cy);
      return;
    }
    for (int x = cx - ring; x <= cx + ring; ++x) {
      emit(x, cy - ring);
      emit(x, cy + ring);
    }
    for (int y = cy - ring + 1; y <= cy + ring - 1; ++y) {
      emit(cx - ring, y);
      emit(cx + ring, y);
    }
  }

 private:
  /// Padding of the sight-line walk's column and row ranges, as a fraction
  /// of a cell: far below a cell, and far above the rounding of one
  /// column-boundary computation (about 1e-16 of the segment's length) for
  /// any segment shorter than a million cells.
  static constexpr double kWalkPad = 1e-9;

  int ClampCellX(double x) const;
  int ClampCellY(double y) const;
  const std::vector<uint32_t>& CellAt(int cx, int cy) const {
    return cells_[static_cast<size_t>(cy) * n_ + cx];
  }
  std::vector<uint32_t>& CellAt(int cx, int cy) {
    return cells_[static_cast<size_t>(cy) * n_ + cx];
  }
  void EmitCell(int cx, int cy, std::vector<uint32_t>* out) const;
  void BeginQuery() const;

  geom::Rect domain_;
  int n_;
  double cell_w_;
  double cell_h_;
  std::vector<std::vector<uint32_t>> cells_;
  size_t item_count_ = 0;

  // Epoch-stamped deduplication across cells within one query.
  mutable std::vector<uint32_t> stamp_;
  mutable uint32_t epoch_ = 0;
};

}  // namespace vis
}  // namespace conn

#endif  // CONN_VIS_GRID_INDEX_H_
