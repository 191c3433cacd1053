#include "baselines/rstar/rstar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "broadcast/frame.h"
#include "broadcast/params.h"
#include "common/bytes.h"
#include "common/check.h"
#include "geom/polygon.h"

namespace dtree::baselines {

namespace {

using geom::BBox;
using geom::Point;

/// f64 -> f32 rounded towards -infinity (so a wire MBR min never moves
/// inside the true box).
float FloatDown(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) {
    f = std::nextafterf(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

/// f64 -> f32 rounded towards +infinity.
float FloatUp(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

double OverlapWithSiblings(const std::vector<BBox>& boxes, size_t skip,
                           const BBox& candidate) {
  double overlap = 0.0;
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (i == skip) continue;
    overlap += candidate.IntersectionArea(boxes[i]);
  }
  return overlap;
}

/// The R* insertion: a node array under `root_`. Build-only; RStarTree
/// keeps the tree as a flat layout.
class Builder {
 public:
  struct Entry {
    geom::BBox box;
    int child = -1;   ///< internal: child node id
    int region = -1;  ///< leaf: region id (-> shape object)
  };
  struct Node {
    int level = 0;  ///< 0 = leaf
    std::vector<Entry> entries;
  };

  Builder(int reinsert_percent, int max_entries, int min_entries)
      : reinsert_percent_(reinsert_percent),
        max_entries_(max_entries),
        min_entries_(min_entries) {}

  void Insert(Entry e, int target_level);

  std::vector<Node> nodes_{Node{}};  ///< starts as an empty leaf root
  int root_ = 0;
  int height_ = 1;

 private:
  geom::BBox NodeBox(int id) const;
  int ChooseSubtree(int node_id, const geom::BBox& box, int target_level,
                    std::vector<int>* path) const;
  void SplitNode(int node_id, Entry* new_node_entry);
  void InsertImpl(Entry e, int target_level, bool allow_reinsert);

  int reinsert_percent_;
  int max_entries_;
  int min_entries_;
  /// Reinsertion bookkeeping for the current top-level insert.
  std::vector<bool> reinserted_level_ = std::vector<bool>(1, false);
};

}  // namespace

BBox Builder::NodeBox(int id) const {
  BBox b;
  for (const Entry& e : nodes_[id].entries) b.Extend(e.box);
  return b;
}

int Builder::ChooseSubtree(int node_id, const BBox& box, int target_level,
                           std::vector<int>* path) const {
  int cur = node_id;
  for (;;) {
    path->push_back(cur);
    const Node& node = nodes_[cur];
    if (node.level == target_level) return cur;
    DTREE_CHECK(!node.entries.empty());

    std::vector<BBox> boxes;
    boxes.reserve(node.entries.size());
    for (const Entry& e : node.entries) boxes.push_back(e.box);

    int best = 0;
    if (node.level == 1) {
      // Children are leaves: minimize overlap enlargement, ties by area
      // enlargement, then by area (R* ChooseSubtree).
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enlarge = best_overlap;
      double best_area = best_overlap;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const BBox united = boxes[i].Union(box);
        const double d_overlap = OverlapWithSiblings(boxes, i, united) -
                                 OverlapWithSiblings(boxes, i, boxes[i]);
        const double enlarge = united.Area() - boxes[i].Area();
        const double area = boxes[i].Area();
        if (d_overlap < best_overlap ||
            (d_overlap == best_overlap &&
             (enlarge < best_enlarge ||
              (enlarge == best_enlarge && area < best_area)))) {
          best = static_cast<int>(i);
          best_overlap = d_overlap;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    } else {
      // Minimize area enlargement, ties by area.
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = best_enlarge;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const double enlarge = boxes[i].Union(box).Area() - boxes[i].Area();
        const double area = boxes[i].Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best = static_cast<int>(i);
          best_enlarge = enlarge;
          best_area = area;
        }
      }
    }
    cur = node.entries[best].child;
    DTREE_CHECK(cur >= 0);
  }
}

void Builder::SplitNode(int node_id, Entry* new_node_entry) {
  Node& node = nodes_[node_id];
  std::vector<Entry> entries = std::move(node.entries);
  const int total = static_cast<int>(entries.size());
  DTREE_CHECK(total == max_entries_ + 1);
  const int m = min_entries_;

  // R* split: pick the axis with the minimum total margin over all
  // distributions, then the distribution with minimum overlap (ties: area).
  auto margin_for_sort = [&](std::vector<Entry>& sorted) {
    double margin_sum = 0.0;
    for (int k = m; k <= total - m; ++k) {
      BBox b1, b2;
      for (int i = 0; i < k; ++i) b1.Extend(sorted[i].box);
      for (int i = k; i < total; ++i) b2.Extend(sorted[i].box);
      margin_sum += b1.Margin() + b2.Margin();
    }
    return margin_sum;
  };

  // Entries with the same extent on an axis (e.g. child boxes that both
  // span the service area's width) fall back to their ids, so the split
  // never depends on std::sort's order for equal keys.
  std::vector<Entry> by_x = entries, by_y = entries;
  auto x_less = [](const Entry& a, const Entry& b) {
    return std::tie(a.box.min_x, a.box.max_x, a.child, a.region) <
           std::tie(b.box.min_x, b.box.max_x, b.child, b.region);
  };
  auto y_less = [](const Entry& a, const Entry& b) {
    return std::tie(a.box.min_y, a.box.max_y, a.child, a.region) <
           std::tie(b.box.min_y, b.box.max_y, b.child, b.region);
  };
  std::sort(by_x.begin(), by_x.end(), x_less);
  std::sort(by_y.begin(), by_y.end(), y_less);
  const double margin_x = margin_for_sort(by_x);
  const double margin_y = margin_for_sort(by_y);
  std::vector<Entry>& chosen = margin_x <= margin_y ? by_x : by_y;

  int best_k = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = best_overlap;
  for (int k = m; k <= total - m; ++k) {
    BBox b1, b2;
    for (int i = 0; i < k; ++i) b1.Extend(chosen[i].box);
    for (int i = k; i < total; ++i) b2.Extend(chosen[i].box);
    const double overlap = b1.IntersectionArea(b2);
    const double area = b1.Area() + b2.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_k = k;
      best_overlap = overlap;
      best_area = area;
    }
  }

  node.entries.assign(chosen.begin(), chosen.begin() + best_k);
  Node sibling;
  sibling.level = node.level;
  sibling.entries.assign(chosen.begin() + best_k, chosen.end());
  const int sibling_id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(sibling));

  new_node_entry->child = sibling_id;
  new_node_entry->region = -1;
  new_node_entry->box = NodeBox(sibling_id);
}

void Builder::Insert(Entry e, int target_level) {
  std::fill(reinserted_level_.begin(), reinserted_level_.end(), false);
  InsertImpl(e, target_level, /*allow_reinsert=*/true);
}

void Builder::InsertImpl(Entry e, int target_level, bool allow_reinsert) {
  std::vector<int> path;
  const int target = ChooseSubtree(root_, e.box, target_level, &path);
  nodes_[target].entries.push_back(e);

  // Walk back up handling overflow and refreshing parent entry boxes.
  for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
    const int nid = path[i];
    if (static_cast<int>(nodes_[nid].entries.size()) > max_entries_) {
      const int level = nodes_[nid].level;
      if (nid != root_ && allow_reinsert &&
          level < static_cast<int>(reinserted_level_.size()) &&
          !reinserted_level_[level]) {
        // --- Forced reinsertion ------------------------------------------
        reinserted_level_[level] = true;
        Node& node = nodes_[nid];
        const Point center = NodeBox(nid).Center();
        std::stable_sort(node.entries.begin(), node.entries.end(),
                         [&](const Entry& a, const Entry& b) {
                           return geom::DistanceSquared(a.box.Center(),
                                                        center) >
                                  geom::DistanceSquared(b.box.Center(),
                                                        center);
                         });
        const int p = std::max(
            1, static_cast<int>(node.entries.size()) *
                   reinsert_percent_ / 100);
        std::vector<Entry> evicted(node.entries.begin(),
                                   node.entries.begin() + p);
        node.entries.erase(node.entries.begin(), node.entries.begin() + p);
        // Refresh ancestor boxes before reinserting.
        for (int j = i - 1; j >= 0; --j) {
          for (Entry& pe : nodes_[path[j]].entries) {
            if (pe.child == path[j + 1]) {
              pe.box = NodeBox(path[j + 1]);
              break;
            }
          }
        }
        // Close reinsert: nearest entries first (evicted is sorted
        // farthest-first).
        for (auto it = evicted.rbegin(); it != evicted.rend(); ++it) {
          InsertImpl(*it, level, /*allow_reinsert=*/true);
        }
        return;
      }
      // --- Split ----------------------------------------------------------
      Entry sibling_entry;
      SplitNode(nid, &sibling_entry);
      if (nid == root_) {
        Node new_root;
        new_root.level = nodes_[nid].level + 1;
        Entry old_root_entry;
        old_root_entry.child = nid;
        old_root_entry.box = NodeBox(nid);
        new_root.entries = {old_root_entry, sibling_entry};
        root_ = static_cast<int>(nodes_.size());
        nodes_.push_back(std::move(new_root));
        height_ = nodes_[root_].level + 1;
        reinserted_level_.resize(height_, false);
      } else {
        const int parent = path[i - 1];
        // Refresh this child's box and append the sibling.
        for (Entry& pe : nodes_[parent].entries) {
          if (pe.child == nid) {
            pe.box = NodeBox(nid);
            break;
          }
        }
        nodes_[parent].entries.push_back(sibling_entry);
        continue;  // parent may now overflow
      }
      return;
    }
    // No overflow: refresh the parent's box for this child and continue.
    if (i > 0) {
      for (Entry& pe : nodes_[path[i - 1]].entries) {
        if (pe.child == nid) {
          pe.box = NodeBox(nid);
          break;
        }
      }
    }
  }
}

Result<RStarTree> RStarTree::Build(const sub::Subdivision& sub,
                                   const Options& options) {
  const size_t cap = static_cast<size_t>(options.packet_capacity);
  if (cap < kRStarNodeHeader + 2 * kRStarEntrySize) {
    return Status::InvalidArgument(
        "packet capacity cannot hold an R*-tree node with two entries");
  }
  if (options.reinsert_percent < 0 || options.reinsert_percent >= 100) {
    return Status::InvalidArgument(
        "reinsert percentage must lie in [0, 100)");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }
  RStarTree tree;
  tree.options_ = options;
  tree.max_entries_ =
      static_cast<int>((cap - kRStarNodeHeader) / kRStarEntrySize);
  tree.min_entries_ = std::clamp(tree.max_entries_ * 2 / 5, 1,
                                 tree.max_entries_ / 2);

  Builder b(options.reinsert_percent, tree.max_entries_, tree.min_entries_);
  for (int r = 0; r < sub.NumRegions(); ++r) {
    b.Insert({sub.RegionBounds(r), -1, r}, /*target_level=*/0);
  }
  tree.height_ = b.height_;

  // Depth-first broadcast order, in entry order: node i of the layout is
  // the i-th node the search can visit.
  std::vector<int> order;
  std::vector<uint32_t> pos(b.nodes_.size());
  for (std::vector<int> stack{b.root_}; !stack.empty();) {
    const int id = stack.back();
    stack.pop_back();
    pos[id] = static_cast<uint32_t>(order.size());
    order.push_back(id);
    const Builder::Node& node = b.nodes_[id];
    if (node.level == 0) continue;
    for (auto it = node.entries.rbegin(); it != node.entries.rend(); ++it) {
      stack.push_back(it->child);
    }
  }

  // Every tree node opens a packet; a leaf's shape objects follow it as
  // its ShapeCursor places them. A built tree has no placement walk to
  // charge, so its entries cost nothing and a search's budget is the node
  // count.
  RStarArena& a = tree.layout_;
  a.budget_ = static_cast<int>(order.size());
  a.entry_begin_.push_back(0);
  a.ring_begin_.push_back(0);
  for (const int id : order) {
    const Builder::Node& node = b.nodes_[id];
    a.leaf_.push_back(node.level == 0);
    a.packet_.push_back(tree.num_packets_++);
    tree.index_bytes_ +=
        kRStarNodeHeader + node.entries.size() * kRStarEntrySize;
    ShapeCursor cursor(tree.num_packets_ - 1, cap);
    for (const Builder::Entry& e : node.entries) {
      a.ebox_.push_back(e.box);
      a.attempts_.push_back(0);
      if (node.level > 0) {
        a.target_.push_back(pos[e.child]);
        a.shape_first_.push_back(-1);
        a.shape_num_.push_back(0);
        a.shape_offset_.push_back(0);
        a.ring_begin_.push_back(static_cast<uint32_t>(a.rx_.size()));
        continue;
      }
      DTREE_CHECK(e.region >= 0);
      const geom::Polygon poly = sub.RegionPolygon(e.region);
      // bid + data pointer + point count + vertices (ring closed
      // implicitly, no repeated point needed for containment tests).
      const size_t size = kRStarShapeHeader +
                          poly.NumVertices() * 2 * bcast::kCoordinateSize;
      tree.index_bytes_ += size;
      a.target_.push_back(static_cast<uint32_t>(e.region));
      if (!cursor.Fits(size)) cursor.NextPacket();
      a.shape_first_.push_back(cursor.packet());
      a.shape_offset_.push_back(static_cast<uint32_t>(cursor.offset()));
      a.shape_num_.push_back(cursor.Place(size));
      tree.num_packets_ = cursor.packet() + 1;
      for (const Point& v : poly.ring()) {
        a.rx_.push_back(v.x);
        a.ry_.push_back(v.y);
      }
      a.ring_begin_.push_back(static_cast<uint32_t>(a.rx_.size()));
    }
    a.entry_begin_.push_back(static_cast<uint32_t>(a.ebox_.size()));
  }
  a.ShrinkToFit();
  return tree;
}

Result<bcast::PacketBuffer> RStarTree::SerializePackets() const {
  const RStarArena& a = layout_;
  const int capacity = options_.packet_capacity;
  bcast::PacketBuffer packets(static_cast<size_t>(num_packets_),
                              static_cast<size_t>(capacity));
  for (int node = 0; node < a.num_nodes(); ++node) {
    const bool leaf = a.leaf_[node] != 0;
    const uint32_t eb = a.entry_begin_[node];
    const uint32_t ee = a.entry_begin_[node + 1];
    ByteWriter w;
    DTREE_RETURN_IF_ERROR(
        w.PutU16Checked((leaf ? 0x8000u : 0u) | (ee - eb), "entry count"));
    for (uint32_t i = eb; i < ee; ++i) {
      const BBox& box = a.ebox_[i];
      w.PutF32(FloatDown(box.min_x));
      w.PutF32(FloatDown(box.min_y));
      w.PutF32(FloatUp(box.max_x));
      w.PutF32(FloatUp(box.max_y));
      if (leaf) {
        DTREE_RETURN_IF_ERROR(w.PutU16Checked(a.target_[i], "region id"));
      } else {
        DTREE_RETURN_IF_ERROR(w.PutU16Checked(
            static_cast<uint64_t>(a.packet_[a.target_[i]]), "child packet"));
      }
    }
    if (w.size() != kRStarNodeHeader + (ee - eb) * kRStarEntrySize ||
        w.size() > static_cast<size_t>(capacity)) {
      return Status::Internal("serialized r*-tree node size mismatch");
    }
    packets.Write(static_cast<size_t>(a.packet_[node]), 0, w.bytes().data(),
                  w.size());
    if (!leaf) continue;
    for (uint32_t i = eb; i < ee; ++i) {
      const uint32_t rb = a.ring_begin_[i];
      const uint32_t rn = a.ring_begin_[i + 1] - rb;
      ByteWriter sw;
      DTREE_RETURN_IF_ERROR(sw.PutU16Checked(a.target_[i], "region id"));
      DTREE_RETURN_IF_ERROR(sw.PutU16Checked(a.target_[i], "region id"));
      DTREE_RETURN_IF_ERROR(sw.PutU16Checked(rn, "shape vertex count"));
      for (uint32_t k = rb; k < rb + rn; ++k) {
        sw.PutF32(static_cast<float>(a.rx_[k]));
        sw.PutF32(static_cast<float>(a.ry_[k]));
      }
      if (sw.size() != kRStarShapeHeader + rn * 2 * bcast::kCoordinateSize) {
        return Status::Internal("serialized shape size mismatch");
      }
      packets.Write(static_cast<size_t>(a.shape_first_[i]),
                    a.shape_offset_[i], sw.bytes().data(), sw.size());
    }
  }
  return packets;
}

double RStarTree::LeafOverlapArea() const {
  const RStarArena& a = layout_;
  double overlap = 0.0;
  for (int node = 0; node < a.num_nodes(); ++node) {
    if (a.leaf_[node] == 0) continue;
    for (uint32_t i = a.entry_begin_[node]; i < a.entry_begin_[node + 1];
         ++i) {
      for (uint32_t j = i + 1; j < a.entry_begin_[node + 1]; ++j) {
        overlap += a.ebox_[i].IntersectionArea(a.ebox_[j]);
      }
    }
  }
  return overlap;
}

}  // namespace dtree::baselines
