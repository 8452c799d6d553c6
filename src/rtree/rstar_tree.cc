#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/predicates.h"

namespace conn {
namespace rtree {

namespace {

/// Area enlargement of \p base needed to cover \p add.
double AreaEnlargement(const geom::Rect& base, const geom::Rect& add) {
  return base.ExpandedToCover(add).Area() - base.Area();
}

/// Sum of pairwise overlap between entry \p idx (enlarged to \p enlarged)
/// and every other entry of \p node, minus the overlap it already had.
double OverlapEnlargement(const Node& node, size_t idx,
                          const geom::Rect& enlarged) {
  double delta = 0.0;
  const geom::Rect& original = node.entries[idx].rect;
  for (size_t j = 0; j < node.entries.size(); ++j) {
    if (j == idx) continue;
    delta += enlarged.OverlapArea(node.entries[j].rect) -
             original.OverlapArea(node.entries[j].rect);
  }
  return delta;
}

/// R* restricts the O(n^2) overlap test to this many candidates.
constexpr size_t kChooseSubtreeP = 32;

/// Chooses the child slot of \p node that should receive \p rect.
size_t ChooseSubtreeSlot(const Node& node, const geom::Rect& rect) {
  CONN_DCHECK(!node.IsLeaf());
  CONN_DCHECK(!node.entries.empty());

  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement among the
    // kChooseSubtreeP entries with least area enlargement.
    std::vector<size_t> order(node.entries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return AreaEnlargement(node.entries[a].rect, rect) <
             AreaEnlargement(node.entries[b].rect, rect);
    });
    const size_t candidates = std::min(order.size(), kChooseSubtreeP);
    size_t best = order[0];
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_area_enl = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < candidates; ++k) {
      const size_t i = order[k];
      const geom::Rect enlarged = node.entries[i].rect.ExpandedToCover(rect);
      const double overlap = OverlapEnlargement(node, i, enlarged);
      const double area_enl = AreaEnlargement(node.entries[i].rect, rect);
      const double area = node.entries[i].rect.Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap &&
           (area_enl < best_area_enl ||
            (area_enl == best_area_enl && area < best_area)))) {
        best = i;
        best_overlap = overlap;
        best_area_enl = area_enl;
        best_area = area;
      }
    }
    return best;
  }

  // Children are internal nodes: minimize area enlargement, ties by area.
  size_t best = 0;
  double best_enl = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enl = AreaEnlargement(node.entries[i].rect, rect);
    const double area = node.entries[i].rect.Area();
    if (enl < best_enl || (enl == best_enl && area < best_area)) {
      best = i;
      best_enl = enl;
      best_area = area;
    }
  }
  return best;
}

/// Margin (perimeter) sum of all R* distributions along one sorted order.
struct SplitScan {
  std::vector<geom::Rect> prefix;  // prefix[i] = bounds of entries[0..i]
  std::vector<geom::Rect> suffix;  // suffix[i] = bounds of entries[i..n-1]
};

SplitScan ComputeScan(const std::vector<NodeEntry>& entries) {
  const size_t n = entries.size();
  SplitScan s;
  s.prefix.resize(n);
  s.suffix.resize(n);
  geom::Rect acc = geom::Rect::Empty();
  for (size_t i = 0; i < n; ++i) {
    acc = acc.ExpandedToCover(entries[i].rect);
    s.prefix[i] = acc;
  }
  acc = geom::Rect::Empty();
  for (size_t i = n; i-- > 0;) {
    acc = acc.ExpandedToCover(entries[i].rect);
    s.suffix[i] = acc;
  }
  return s;
}

}  // namespace

RStarTree::RStarTree() {
  root_ = pager_->Allocate();
  Node leaf;
  leaf.level = 0;
  storage::Page page;
  leaf.ToPage(&page);
  CONN_CHECK(pager_->Write(root_, page).ok());
}

StatusOr<ConstNodeRef> RStarTree::FetchNode(storage::PageId id) const {
  StatusOr<storage::PinnedPage> pinned = pager_->Fetch(id);
  if (!pinned.ok()) return pinned.status();
  storage::PinnedPage& pp = pinned.value();
  if (const std::shared_ptr<const void>& cached = pp.decoded()) {
    // Buffer hit on an already-parsed node: zero copies, zero parsing.
    return std::static_pointer_cast<const Node>(cached);
  }
  auto node = std::make_shared<Node>();
  node->AssignFromPage(pp.page());
  ConstNodeRef ref = std::move(node);
  pp.SetDecoded(ref);  // no-op when unbuffered — nowhere to cache
  return ref;
}

Status RStarTree::ReadNode(storage::PageId id, Node* out) const {
  StatusOr<storage::PinnedPage> pinned = pager_->Fetch(id);
  if (!pinned.ok()) return pinned.status();
  const storage::PinnedPage& pp = pinned.value();
  if (const std::shared_ptr<const void>& cached = pp.decoded()) {
    *out = *std::static_pointer_cast<const Node>(cached);  // skip re-parse
  } else {
    out->AssignFromPage(pp.page());
  }
  return Status::OK();
}

Status RStarTree::WriteNode(storage::PageId id, const Node& node) {
  storage::Page page;
  node.ToPage(&page);
  return pager_->Write(id, page);
}

geom::Rect RStarTree::Bounds() const {
  StatusOr<ConstNodeRef> root = FetchNode(root_);
  if (!root.ok()) return geom::Rect::Empty();
  return root.value()->ComputeBounds();
}

Status RStarTree::ChoosePath(const geom::Rect& rect, uint16_t target_level,
                             std::vector<PathItem>* path) const {
  path->clear();
  storage::PageId page_id = root_;
  int slot = -1;
  while (true) {
    Node node;
    CONN_RETURN_IF_ERROR(ReadNode(page_id, &node));
    const uint16_t level = node.level;
    path->push_back({page_id, std::move(node), slot});
    if (level == target_level) return Status::OK();
    if (level < target_level || path->back().node.entries.empty()) {
      return Status::Internal("ChoosePath: target level unreachable");
    }
    slot = static_cast<int>(ChooseSubtreeSlot(path->back().node, rect));
    page_id = path->back().node.entries[slot].DecodeChild();
  }
}

void RStarTree::SplitNode(Node* node, Node* right) {
  std::vector<NodeEntry>& entries = node->entries;
  const size_t n = entries.size();
  CONN_CHECK(n == kNodeCapacity + 1);
  const size_t min_fill = kNodeMinFill;

  // --- choose split axis by minimum margin sum (R* CSA1/CSA2) ---
  double best_margin = std::numeric_limits<double>::infinity();
  int best_axis = 0;
  bool best_by_hi = false;
  for (int axis = 0; axis < 2; ++axis) {
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::sort(entries.begin(), entries.end(),
                [&](const NodeEntry& a, const NodeEntry& b) {
                  const double ka = axis == 0
                                        ? (by_hi ? a.rect.hi.x : a.rect.lo.x)
                                        : (by_hi ? a.rect.hi.y : a.rect.lo.y);
                  const double kb = axis == 0
                                        ? (by_hi ? b.rect.hi.x : b.rect.lo.x)
                                        : (by_hi ? b.rect.hi.y : b.rect.lo.y);
                  return ka < kb;
                });
      const SplitScan scan = ComputeScan(entries);
      double margin = 0.0;
      for (size_t k = min_fill; k <= n - min_fill; ++k) {
        margin += scan.prefix[k - 1].Margin() + scan.suffix[k].Margin();
      }
      if (margin < best_margin) {
        best_margin = margin;
        best_axis = axis;
        best_by_hi = by_hi;
      }
    }
  }

  // --- re-sort on the chosen axis/order and pick the distribution with
  //     minimum overlap (ties: minimum combined area) (R* CSI1) ---
  std::sort(entries.begin(), entries.end(),
            [&](const NodeEntry& a, const NodeEntry& b) {
              const double ka =
                  best_axis == 0 ? (best_by_hi ? a.rect.hi.x : a.rect.lo.x)
                                 : (best_by_hi ? a.rect.hi.y : a.rect.lo.y);
              const double kb =
                  best_axis == 0 ? (best_by_hi ? b.rect.hi.x : b.rect.lo.x)
                                 : (best_by_hi ? b.rect.hi.y : b.rect.lo.y);
              return ka < kb;
            });
  const SplitScan scan = ComputeScan(entries);
  size_t best_k = min_fill;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t k = min_fill; k <= n - min_fill; ++k) {
    const double overlap = scan.prefix[k - 1].OverlapArea(scan.suffix[k]);
    const double area = scan.prefix[k - 1].Area() + scan.suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  right->level = node->level;
  right->entries.assign(entries.begin() + best_k, entries.end());
  entries.resize(best_k);
}

Status RStarTree::AdjustPath(std::vector<PathItem>* path, size_t from_index) {
  CONN_RETURN_IF_ERROR(
      WriteNode((*path)[from_index].page_id, (*path)[from_index].node));
  for (size_t j = from_index; j > 0; --j) {
    PathItem& child = (*path)[j];
    PathItem& parent = (*path)[j - 1];
    const geom::Rect bounds = child.node.ComputeBounds();
    NodeEntry& pe = parent.node.entries[child.slot_in_parent];
    if (pe.rect == bounds) break;  // no further change propagates
    pe.rect = bounds;
    CONN_RETURN_IF_ERROR(WriteNode(parent.page_id, parent.node));
  }
  return Status::OK();
}

Status RStarTree::InsertEntry(const NodeEntry& entry, uint16_t level,
                              uint32_t* reinsert_mask) {
  std::vector<PathItem> path;
  CONN_RETURN_IF_ERROR(ChoosePath(entry.rect, level, &path));
  path.back().node.entries.push_back(entry);

  size_t i = path.size() - 1;
  while (path[i].node.Overflowing()) {
    const uint16_t node_level = path[i].node.level;
    const bool is_root = (i == 0);

    if (!is_root && !((*reinsert_mask) >> node_level & 1u)) {
      // --- forced reinsertion (R* OverflowTreatment, once per level) ---
      *reinsert_mask |= (1u << node_level);
      Node& node = path[i].node;
      const geom::Vec2 center = node.ComputeBounds().Center();
      std::sort(node.entries.begin(), node.entries.end(),
                [&](const NodeEntry& a, const NodeEntry& b) {
                  return geom::Dist2(a.rect.Center(), center) >
                         geom::Dist2(b.rect.Center(), center);
                });
      std::vector<NodeEntry> removed(node.entries.begin(),
                                     node.entries.begin() + kReinsertCount);
      node.entries.erase(node.entries.begin(),
                         node.entries.begin() + kReinsertCount);
      CONN_RETURN_IF_ERROR(AdjustPath(&path, i));
      // Close reinsert: nearest-to-center first.
      for (size_t r = removed.size(); r-- > 0;) {
        CONN_RETURN_IF_ERROR(
            InsertEntry(removed[r], node_level, reinsert_mask));
      }
      return Status::OK();
    }

    // --- split ---
    Node right;
    SplitNode(&path[i].node, &right);
    const storage::PageId right_id = pager_->Allocate();
    CONN_RETURN_IF_ERROR(WriteNode(right_id, right));
    CONN_RETURN_IF_ERROR(WriteNode(path[i].page_id, path[i].node));

    NodeEntry right_entry;
    right_entry.rect = right.ComputeBounds();
    right_entry.payload = right_id;

    if (is_root) {
      // Grow a new root above the split pair.
      Node new_root;
      new_root.level = static_cast<uint16_t>(path[i].node.level + 1);
      NodeEntry left_entry;
      left_entry.rect = path[i].node.ComputeBounds();
      left_entry.payload = path[i].page_id;
      new_root.entries = {left_entry, right_entry};
      const storage::PageId new_root_id = pager_->Allocate();
      CONN_RETURN_IF_ERROR(WriteNode(new_root_id, new_root));
      root_ = new_root_id;
      ++height_;
      return Status::OK();
    }

    PathItem& parent = path[i - 1];
    parent.node.entries[path[i].slot_in_parent].rect =
        path[i].node.ComputeBounds();
    parent.node.entries.push_back(right_entry);
    --i;
  }
  return AdjustPath(&path, i);
}

Status RStarTree::Insert(const DataObject& obj) {
  if (!obj.rect.IsValid()) {
    return Status::InvalidArgument("Insert: invalid rectangle");
  }
  NodeEntry entry;
  entry.rect = obj.rect;
  entry.payload = NodeEntry::EncodeLeaf(obj.id, obj.kind);
  uint32_t reinsert_mask = 0;
  CONN_RETURN_IF_ERROR(InsertEntry(entry, /*level=*/0, &reinsert_mask));
  ++size_;
  return Status::OK();
}

namespace {

/// Depth-first search for the leaf containing an exact (rect, payload) match.
Status FindLeafRec(const RStarTree& tree, storage::PageId page_id,
                   const NodeEntry& target, std::vector<storage::PageId>* path,
                   bool* found) {
  StatusOr<ConstNodeRef> ref = tree.FetchNode(page_id);
  if (!ref.ok()) return ref.status();
  const Node& node = *ref.value();
  path->push_back(page_id);
  if (node.IsLeaf()) {
    for (const NodeEntry& e : node.entries) {
      if (e.payload == target.payload && e.rect == target.rect) {
        *found = true;
        return Status::OK();
      }
    }
  } else {
    for (const NodeEntry& e : node.entries) {
      if (!e.rect.Contains(target.rect)) continue;
      CONN_RETURN_IF_ERROR(
          FindLeafRec(tree, e.DecodeChild(), target, path, found));
      if (*found) return Status::OK();
    }
  }
  path->pop_back();
  return Status::OK();
}

/// Collects every leaf-level entry below \p page_id.
Status CollectLeafEntries(const RStarTree& tree, storage::PageId page_id,
                          std::vector<NodeEntry>* out) {
  StatusOr<ConstNodeRef> ref = tree.FetchNode(page_id);
  if (!ref.ok()) return ref.status();
  const Node& node = *ref.value();
  if (node.IsLeaf()) {
    out->insert(out->end(), node.entries.begin(), node.entries.end());
    return Status::OK();
  }
  for (const NodeEntry& e : node.entries) {
    CONN_RETURN_IF_ERROR(CollectLeafEntries(tree, e.DecodeChild(), out));
  }
  return Status::OK();
}

}  // namespace

Status RStarTree::Delete(const DataObject& obj) {
  NodeEntry target;
  target.rect = obj.rect;
  target.payload = NodeEntry::EncodeLeaf(obj.id, obj.kind);

  std::vector<storage::PageId> page_path;
  bool found = false;
  CONN_RETURN_IF_ERROR(FindLeafRec(*this, root_, target, &page_path, &found));
  if (!found) return Status::NotFound("Delete: object not indexed");

  // Re-read the path as nodes with parent slots.
  std::vector<PathItem> path;
  for (size_t i = 0; i < page_path.size(); ++i) {
    Node node;
    CONN_RETURN_IF_ERROR(ReadNode(page_path[i], &node));
    int slot = -1;
    if (i > 0) {
      const Node& parent = path[i - 1].node;
      for (size_t s = 0; s < parent.entries.size(); ++s) {
        if (parent.entries[s].DecodeChild() == page_path[i]) {
          slot = static_cast<int>(s);
          break;
        }
      }
      CONN_CHECK(slot >= 0);
    }
    path.push_back({page_path[i], std::move(node), slot});
  }

  // Remove the entry from the leaf.
  {
    Node& leaf = path.back().node;
    auto it = std::find_if(leaf.entries.begin(), leaf.entries.end(),
                           [&](const NodeEntry& e) {
                             return e.payload == target.payload &&
                                    e.rect == target.rect;
                           });
    CONN_CHECK(it != leaf.entries.end());
    leaf.entries.erase(it);
  }

  // Condense: dissolve underflowing non-root nodes bottom-up.
  std::vector<NodeEntry> orphan_leaf_entries;
  size_t i = path.size() - 1;
  while (i > 0 && path[i].node.Count() < kNodeMinFill) {
    // Collect the node's remaining content for reinsertion.
    if (path[i].node.IsLeaf()) {
      orphan_leaf_entries.insert(orphan_leaf_entries.end(),
                                 path[i].node.entries.begin(),
                                 path[i].node.entries.end());
    } else {
      for (const NodeEntry& e : path[i].node.entries) {
        CONN_RETURN_IF_ERROR(
            CollectLeafEntries(*this, e.DecodeChild(), &orphan_leaf_entries));
      }
    }
    // Unlink from the parent (the page itself is leaked by design).
    Node& parent = path[i - 1].node;
    parent.entries.erase(parent.entries.begin() + path[i].slot_in_parent);
    --i;
  }
  CONN_RETURN_IF_ERROR(AdjustPath(&path, i));

  // Shrink the root while it is an internal node with a single child.
  while (height_ > 1) {
    Node root;
    CONN_RETURN_IF_ERROR(ReadNode(root_, &root));
    if (root.IsLeaf() || root.entries.size() != 1) break;
    root_ = root.entries[0].DecodeChild();
    --height_;
  }

  --size_;
  for (const NodeEntry& e : orphan_leaf_entries) {
    uint32_t reinsert_mask = 0;
    CONN_RETURN_IF_ERROR(InsertEntry(e, /*level=*/0, &reinsert_mask));
  }
  return Status::OK();
}

Status RStarTree::RangeQuery(const geom::Rect& range,
                             std::vector<DataObject>* out) const {
  out->clear();
  std::vector<storage::PageId> stack = {root_};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    StatusOr<ConstNodeRef> ref = FetchNode(id);
    if (!ref.ok()) return ref.status();
    const Node& node = *ref.value();
    for (const NodeEntry& e : node.entries) {
      if (!e.rect.Intersects(range)) continue;
      if (node.IsLeaf()) {
        out->push_back(e.ToObject());
      } else {
        stack.push_back(e.DecodeChild());
      }
    }
  }
  return Status::OK();
}

Status RStarTree::SegmentIntersectionQuery(const geom::Segment& s,
                                           std::vector<DataObject>* out) const {
  out->clear();
  std::vector<storage::PageId> stack = {root_};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    StatusOr<ConstNodeRef> ref = FetchNode(id);
    if (!ref.ok()) return ref.status();
    const Node& node = *ref.value();
    for (const NodeEntry& e : node.entries) {
      if (!geom::SegmentIntersectsRect(s, e.rect)) continue;
      if (node.IsLeaf()) {
        out->push_back(e.ToObject());
      } else {
        stack.push_back(e.DecodeChild());
      }
    }
  }
  return Status::OK();
}

Status RStarTree::ValidateRec(storage::PageId id, uint16_t expected_level,
                              const geom::Rect* parent_rect, bool is_root,
                              size_t* object_count) const {
  StatusOr<ConstNodeRef> ref = FetchNode(id);
  if (!ref.ok()) return ref.status();
  const Node& node = *ref.value();
  if (node.level != expected_level) {
    return Status::Corruption("level mismatch");
  }
  if (!is_root && node.Count() < kNodeMinFill) {
    return Status::Corruption("underfull non-root node");
  }
  if (node.Count() > kNodeCapacity) {
    return Status::Corruption("overfull node");
  }
  if (parent_rect != nullptr) {
    const geom::Rect bounds = node.ComputeBounds();
    if (!parent_rect->Contains(bounds)) {
      return Status::Corruption("parent MBR does not contain child bounds");
    }
  }
  if (node.IsLeaf()) {
    *object_count += node.Count();
    return Status::OK();
  }
  for (const NodeEntry& e : node.entries) {
    CONN_RETURN_IF_ERROR(ValidateRec(e.DecodeChild(), expected_level - 1,
                                     &e.rect, /*is_root=*/false,
                                     object_count));
  }
  return Status::OK();
}

Status RStarTree::Validate() const {
  size_t object_count = 0;
  CONN_RETURN_IF_ERROR(ValidateRec(root_,
                                   static_cast<uint16_t>(height_ - 1),
                                   nullptr, /*is_root=*/true, &object_count));
  if (object_count != size_) {
    return Status::Corruption("object count mismatch: tree has " +
                              std::to_string(object_count) + ", expected " +
                              std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace rtree
}  // namespace conn
