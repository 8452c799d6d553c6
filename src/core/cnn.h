// Euclidean continuous nearest neighbor (CNN) search — Tao, Papadias &
// Shen, VLDB 2002 — the obstacle-free ancestor of CONN and the contrast of
// Figure 1 of the paper.
//
// In an obstacle-free space every data point is its own control point with
// offset zero, so CNN runs CONN's main loop (internal::RunMainLoop) with
// trivial control point lists: best-first browsing by mindist(p, q), split
// points at perpendicular-bisector crossings (a special case of the
// quadratic of Theorem 1), and RLMAX termination.  Besides being useful on
// its own, it anchors two correctness properties exercised by tests: CONN
// with an empty obstacle set must equal CNN, and CNN must match
// brute-force sampling.

#ifndef CONN_CORE_CNN_H_
#define CONN_CORE_CNN_H_

#include "core/conn.h"

namespace conn {
namespace core {

/// Euclidean CNN over a data R-tree (no obstacles).  The result reuses
/// ConnResult; each tuple's control point is the data point itself and
/// offset is 0.
ConnResult CnnQuery(const rtree::RStarTree& data_tree, const geom::Segment& q,
                    const ConnOptions& opts = {});

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_CNN_H_
