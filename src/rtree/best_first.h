// Best-first distance browsing over an R-tree (Hjaltason & Samet, TODS
// 1999).  Yields indexed objects in ascending order of their minimum
// Euclidean distance to a query segment — the mindist(e, q) order in which
// both CONN's data points and IOR's obstacles are consumed (Algorithms 1
// and 4).  Incremental: callers stop as soon as their termination bound
// (RLMAX, Lemma 2; or the IOR search distance, Lemma 3) is reached, giving
// the optimal I/O property of best-first search.

#ifndef CONN_RTREE_BEST_FIRST_H_
#define CONN_RTREE_BEST_FIRST_H_

#include <queue>
#include <vector>

#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace rtree {

/// Incremental nearest-first stream of objects from a tree w.r.t. a segment.
/// (A point query is the degenerate segment [p, p].)
class BestFirstIterator {
 public:
  /// Starts a stream over \p tree ordered by mindist to \p q.  The tree must
  /// outlive the iterator and must not be modified during iteration.
  BestFirstIterator(const RStarTree& tree, const geom::Segment& q);

  /// Minimum possible distance of any not-yet-returned object; +infinity
  /// when exhausted.  Expands internal nodes as needed (counted I/O).
  double PeekDist();

  /// Retrieves the next object and its mindist.  False when exhausted.
  bool Next(DataObject* out, double* dist);

 private:
  struct HeapItem {
    double dist;
    bool is_node;
    uint64_t payload;  // PageId for nodes, encoded leaf payload for objects
    geom::Rect rect;

    bool operator>(const HeapItem& o) const {
      if (dist != o.dist) return dist > o.dist;
      // Deterministic tie-break: nodes before objects, then by payload.
      if (is_node != o.is_node) return !is_node;
      return payload > o.payload;
    }
  };

  /// Pops internal nodes until the heap's top is an object (or empty).
  void EnsureTopIsObject();

  const RStarTree& tree_;
  geom::Segment query_;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
};

}  // namespace rtree
}  // namespace conn

#endif  // CONN_RTREE_BEST_FIRST_H_
