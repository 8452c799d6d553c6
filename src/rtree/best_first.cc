#include "rtree/best_first.h"

#include <limits>

#include "geom/distance.h"

namespace conn {
namespace rtree {

BestFirstIterator::BestFirstIterator(const RStarTree& tree,
                                     const geom::Segment& q)
    : tree_(tree), query_(q) {
  if (tree.size() == 0) return;  // empty tree: stream is empty
  HeapItem root;
  root.dist = 0.0;
  root.is_node = true;
  root.payload = tree.root();
  root.rect = geom::Rect::Empty();
  heap_.push(root);
}

void BestFirstIterator::EnsureTopIsObject() {
  while (!heap_.empty() && heap_.top().is_node) {
    const HeapItem top = heap_.top();
    heap_.pop();
    // Page ids in the heap come from the tree itself; failure here means
    // structural corruption, not a caller error.
    StatusOr<ConstNodeRef> ref =
        tree_.FetchNode(static_cast<storage::PageId>(top.payload));
    CONN_CHECK_MSG(ref.ok(), "best-first read failed");
    const Node& node = *ref.value();
    for (const NodeEntry& e : node.entries) {
      HeapItem item;
      item.dist = geom::MinDistRectSegment(e.rect, query_);
      item.is_node = !node.IsLeaf();
      item.payload = node.IsLeaf() ? e.payload
                                   : static_cast<uint64_t>(e.DecodeChild());
      item.rect = e.rect;
      heap_.push(item);
    }
  }
}

double BestFirstIterator::PeekDist() {
  EnsureTopIsObject();
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().dist;
}

bool BestFirstIterator::Next(DataObject* out, double* dist) {
  EnsureTopIsObject();
  if (heap_.empty()) return false;
  const HeapItem top = heap_.top();
  heap_.pop();
  NodeEntry e;
  e.rect = top.rect;
  e.payload = top.payload;
  *out = e.ToObject();
  *dist = top.dist;
  return true;
}

}  // namespace rtree
}  // namespace conn
