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

namespace dtree::baselines {

namespace {

using geom::BBox;
using geom::Point;

constexpr size_t kEntrySize = 4 * bcast::kCoordinateSize +  // MBR
                              bcast::kRStarPointerSize;     // child/shape
constexpr size_t kNodeHeader = bcast::kBidSize;

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

}  // namespace

BBox RStarTree::NodeBox(int id) const {
  BBox b;
  for (const Entry& e : nodes_[id].entries) b.Extend(e.box);
  return b;
}

int RStarTree::ChooseSubtree(int node_id, const BBox& box, int target_level,
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

void RStarTree::SplitNode(int node_id, Entry* new_node_entry) {
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

void RStarTree::Insert(Entry e, int target_level) {
  std::fill(reinserted_level_.begin(), reinserted_level_.end(), false);
  InsertImpl(e, target_level, /*allow_reinsert=*/true);
}

void RStarTree::InsertImpl(Entry e, int target_level, bool allow_reinsert) {
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
                   options_.reinsert_percent / 100);
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
  RStarTree tree;
  tree.options_ = options;
  const size_t cap = static_cast<size_t>(options.packet_capacity);
  if (cap < kNodeHeader + 2 * kEntrySize) {
    return Status::InvalidArgument(
        "packet capacity cannot hold an R*-tree node with two entries");
  }
  if (sub.NumRegions() < 1) {
    return Status::InvalidArgument("empty subdivision");
  }
  tree.max_entries_ = static_cast<int>((cap - kNodeHeader) / kEntrySize);
  tree.min_entries_ = std::clamp(tree.max_entries_ * 2 / 5, 1,
                                 tree.max_entries_ / 2);

  tree.nodes_.push_back(Node{});  // empty leaf root
  tree.root_ = 0;
  tree.height_ = 1;
  tree.reinserted_level_.assign(1, false);

  for (int r = 0; r < sub.NumRegions(); ++r) {
    Entry e;
    e.box = sub.RegionBounds(r);
    e.region = r;
    tree.Insert(e, /*target_level=*/0);
  }

  DTREE_RETURN_IF_ERROR(tree.Layout(sub));
  return tree;
}

Status RStarTree::Layout(const sub::Subdivision& sub) {
  shapes_.clear();
  shapes_.reserve(sub.NumRegions());
  for (int r = 0; r < sub.NumRegions(); ++r) {
    shapes_.push_back(sub.RegionPolygon(r));
  }
  shape_span_.assign(sub.NumRegions(), {});
  node_packet_.assign(nodes_.size(), -1);
  const size_t cap = static_cast<size_t>(options_.packet_capacity);

  num_packets_ = 0;
  index_bytes_ = 0;
  // DFS in entry order; every tree node opens a packet, a leaf's shape
  // objects follow it greedily.
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    node_packet_[id] = num_packets_++;
    index_bytes_ += kNodeHeader + nodes_[id].entries.size() * kEntrySize;
    const Node& node = nodes_[id];
    if (node.level > 0) {
      for (auto it = node.entries.rbegin(); it != node.entries.rend();
           ++it) {
        stack.push_back(it->child);
      }
      continue;
    }
    // Leaf: append its shape objects greedily into fresh packets.
    size_t fill = cap;  // force a new packet for the first shape
    for (const Entry& e : node.entries) {
      DTREE_CHECK(e.region >= 0);
      const geom::Polygon& poly = shapes_[e.region];
      // bid + data pointer + point count + vertices (ring closed
      // implicitly, no repeated point needed for containment tests).
      const size_t size = bcast::kBidSize + bcast::kRStarPointerSize + 2 +
                          poly.NumVertices() * 2 * bcast::kCoordinateSize;
      index_bytes_ += size;
      bcast::NodeSpan span;
      if (size <= cap - fill) {
        span.first_packet = num_packets_ - 1;
        span.num_packets = 1;
        span.offset = fill;
        fill += size;
      } else {
        span.first_packet = num_packets_;
        span.offset = 0;
        size_t rest = size;
        int count = 1;
        while (rest > cap) {
          rest -= cap;
          ++count;
        }
        span.num_packets = count;
        num_packets_ += count;
        fill = rest;
      }
      shape_span_[e.region] = span;
    }
  }
  return Status::OK();
}

Result<bcast::PacketBuffer> RStarTree::SerializePackets() const {
  const int capacity = options_.packet_capacity;
  bcast::PacketBuffer packets(static_cast<size_t>(num_packets_),
                              static_cast<size_t>(capacity));
  if (node_packet_.empty() || node_packet_[root_] != 0) {
    return Status::Internal("r*-tree root not at packet 0");
  }
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (node_packet_[id] < 0) continue;  // unreachable (never happens)
    const Node& node = nodes_[id];
    const bool leaf = node.level == 0;
    ByteWriter w;
    DTREE_RETURN_IF_ERROR(w.PutU16Checked(
        (leaf ? 0x8000u : 0u) | node.entries.size(), "entry count"));
    for (const Entry& e : node.entries) {
      w.PutF32(FloatDown(e.box.min_x));
      w.PutF32(FloatDown(e.box.min_y));
      w.PutF32(FloatUp(e.box.max_x));
      w.PutF32(FloatUp(e.box.max_y));
      if (leaf) {
        DTREE_RETURN_IF_ERROR(
            w.PutU16Checked(static_cast<uint64_t>(e.region), "region id"));
      } else {
        DTREE_RETURN_IF_ERROR(w.PutU16Checked(
            static_cast<uint64_t>(node_packet_[e.child]), "child packet"));
      }
    }
    if (w.size() != kNodeHeader + node.entries.size() * kEntrySize ||
        w.size() > static_cast<size_t>(capacity)) {
      return Status::Internal("serialized r*-tree node size mismatch");
    }
    packets.Write(static_cast<size_t>(node_packet_[id]), 0, w.bytes().data(),
                  w.size());
  }
  for (size_t r = 0; r < shapes_.size(); ++r) {
    const bcast::NodeSpan& s = shape_span_[r];
    if (s.first_packet < 0) continue;
    const geom::Polygon& poly = shapes_[r];
    ByteWriter w;
    DTREE_RETURN_IF_ERROR(w.PutU16Checked(r, "region id"));
    DTREE_RETURN_IF_ERROR(w.PutU16Checked(r, "region id"));
    DTREE_RETURN_IF_ERROR(
        w.PutU16Checked(poly.NumVertices(), "shape vertex count"));
    for (const Point& v : poly.ring()) {
      w.PutF32(static_cast<float>(v.x));
      w.PutF32(static_cast<float>(v.y));
    }
    const size_t accounted = bcast::kBidSize + bcast::kRStarPointerSize + 2 +
                             poly.NumVertices() * 2 * bcast::kCoordinateSize;
    if (w.size() != accounted) {
      return Status::Internal("serialized shape size mismatch");
    }
    packets.Write(static_cast<size_t>(s.first_packet), s.offset,
                  w.bytes().data(), w.size());
  }
  return packets;
}

int RStarTree::Locate(const geom::Point& p) const {
  Result<bcast::ProbeTrace> r = Probe(p);
  return r.ok() ? r.value().region : -1;
}

Status RStarTree::ProbeInto(const geom::Point& p,
                            bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  auto touch = [trace](int packet) {
    if (trace->packets.empty() || trace->packets.back() != packet) {
      trace->packets.push_back(packet);
    }
  };

  int best_fallback = -1;
  double best_fallback_dist = std::numeric_limits<double>::infinity();

  thread_local std::vector<int> stack;
  stack.assign(1, root_);
  int steps = 0;
  while (!stack.empty()) {
    if (++steps > bcast::kProbeStepBudget) {
      return Status::Internal("r*-tree descent exceeded the probe budget");
    }
    const int id = stack.back();
    stack.pop_back();
    touch(node_packet_[id]);
    const Node& node = nodes_[id];
    if (node.level > 0) {
      // Depth-first: push matching children in reverse so the leftmost
      // (earliest on the channel) is explored first.
      for (auto it = node.entries.rbegin(); it != node.entries.rend();
           ++it) {
        if (it->box.Contains(p)) stack.push_back(it->child);
      }
      continue;
    }
    for (const Entry& e : node.entries) {
      if (!e.box.Contains(p)) continue;
      const bcast::NodeSpan& span = shape_span_[e.region];
      for (int k = 0; k < span.num_packets; ++k) touch(span.first_packet + k);
      const geom::Polygon& poly = shapes_[e.region];
      if (poly.Contains(p)) {
        trace->region = e.region;
        return Status::OK();
      }
      const double d = poly.DistanceToBoundary(p);
      if (d < best_fallback_dist) {
        best_fallback_dist = d;
        best_fallback = e.region;
      }
    }
  }
  if (best_fallback >= 0) {
    // Numeric gap between adjacent shapes: resolve to the nearest tested
    // region (the answer is ambiguous within tolerance anyway).
    trace->region = best_fallback;
    return Status::OK();
  }
  return Status::Internal("query point escaped every leaf MBR");
}

double RStarTree::LeafOverlapArea() const {
  double overlap = 0.0;
  for (const Node& node : nodes_) {
    if (node.level != 0) continue;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      for (size_t j = i + 1; j < node.entries.size(); ++j) {
        overlap +=
            node.entries[i].box.IntersectionArea(node.entries[j].box);
      }
    }
  }
  return overlap;
}

}  // namespace dtree::baselines
