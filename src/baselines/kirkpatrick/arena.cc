#include "baselines/kirkpatrick/arena.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "geom/predicates.h"

namespace dtree::baselines {

namespace {

using bcast::kDataPtrBit;
using bcast::kOffsetBits;
using bcast::kOffsetMask;

/// Smallest node on the wire: bid + three f32 vertices + one pointer.
constexpr size_t kMinNodeBytes = 2 + 24 + 4;

double DistanceToTriangle(const geom::Triangle& t, const geom::Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) {
    best = std::min(best,
                    geom::DistanceToSegment(t.v[i], t.v[(i + 1) % 3], p));
  }
  return best;
}

}  // namespace

Result<TrianTreeArena> TrianTreeArena::Build(
    const bcast::PacketBuffer& packets, int packet_capacity, bool framed,
    const std::vector<std::pair<int, size_t>>& roots, int num_regions) {
  if (packets.num_packets() == 0) {
    return Status::InvalidArgument("no packets");
  }
  if (packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  if (roots.empty()) return Status::InvalidArgument("no root locations");

  TrianTreeArena a;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());
  a.child_begin_.push_back(0);

  const size_t max_nodes =
      packets.num_packets() * static_cast<size_t>(packet_capacity) /
          kMinNodeBytes +
      16;
  std::unordered_map<uint32_t, uint32_t> index_of;  // wire key -> arena id
  std::deque<uint32_t> pending;
  auto intern = [&](int pkt, size_t off) -> Result<uint32_t> {
    const uint32_t key = static_cast<uint32_t>(pkt) << kOffsetBits |
                         static_cast<uint32_t>(off);
    const auto [it, inserted] =
        index_of.emplace(key, static_cast<uint32_t>(index_of.size()));
    if (inserted) {
      if (index_of.size() > max_nodes) {
        return Status::DataLoss(
            "decoded node count exceeds what the cycle can hold");
      }
      pending.push_back(key);
    }
    return it->second;
  };

  for (const auto& [pkt, off] : roots) {
    if (pkt < 0 || pkt >= static_cast<int>(packets.num_packets()) ||
        off >= static_cast<size_t>(packet_capacity)) {
      return Status::InvalidArgument("root location outside the stream");
    }
    Result<uint32_t> id = intern(pkt, off);
    if (!id.ok()) return id.status();
    a.roots_.push_back(id.value());
  }

  // Discovered nodes are appended to `pending` in arena-index order, so
  // processing the queue in order keeps per-node records aligned.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> raw_children;
  while (!pending.empty()) {
    const uint32_t key = pending.front();
    pending.pop_front();
    const int packet = static_cast<int>(key >> kOffsetBits);
    const size_t offset = key & kOffsetMask;

    bcast::PacketReader r(packets, packet_capacity, framed, packet, offset,
                          nullptr);
    uint16_t bid;
    DTREE_RETURN_IF_ERROR(r.ReadU16(&bid));
    const int count = bid >> 12;
    geom::Triangle tri;
    for (int i = 0; i < 3; ++i) {
      float x, y;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&x));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&y));
      tri.v[i] = geom::Point{x, y};
    }
    // f32 rounding can flip the orientation of a sliver triangle;
    // Contains() assumes CCW.
    tri.EnsureCCW();
    a.tri_.push_back(tri);
    a.count_.push_back(count);

    const int nptrs = std::max(1, count);
    std::vector<uint32_t> ptrs(static_cast<size_t>(nptrs));
    for (int i = 0; i < nptrs; ++i) {
      DTREE_RETURN_IF_ERROR(r.ReadU32(&ptrs[static_cast<size_t>(i)]));
    }
    const size_t node_bytes = 2 + 24 + 4 * static_cast<size_t>(nptrs);
    a.first_packet_.push_back(packet);
    a.last_packet_.push_back(
        packet + static_cast<int>((offset + node_bytes - 1) /
                                  static_cast<size_t>(packet_capacity)));

    if (count == 0) {
      const uint32_t ptr = ptrs[0];
      if (!bcast::IsDataPointer(ptr)) {
        return Status::DataLoss("base triangle without a data pointer");
      }
      if (ptr != bcast::kOutsideRegionPtr) {
        const int region = bcast::DataPointerRegion(ptr);
        if (region >= num_regions) {
          return Status::DataLoss("data pointer to out-of-range region " +
                                  std::to_string(region));
        }
      }
      a.data_ptr_.push_back(ptr);
    } else {
      a.data_ptr_.push_back(0);
      std::vector<uint32_t> kids;
      kids.reserve(ptrs.size());
      for (uint32_t ptr : ptrs) {
        if (bcast::IsDataPointer(ptr)) {
          return Status::DataLoss(
              "unexpected data pointer in an internal trian-tree node");
        }
        const int cpkt = bcast::NodePointerPacket(ptr);
        const size_t coff = bcast::NodePointerOffset(ptr);
        if (cpkt >= static_cast<int>(packets.num_packets())) {
          return Status::DataLoss("node pointer outside the packet stream");
        }
        if (coff >= static_cast<size_t>(packet_capacity)) {
          return Status::DataLoss("node pointer offset outside the packet");
        }
        Result<uint32_t> id = intern(cpkt, coff);
        if (!id.ok()) return id.status();
        kids.push_back(id.value());
      }
      raw_children.emplace_back(
          static_cast<uint32_t>(a.count_.size()) - 1, std::move(kids));
    }
  }

  // Second pass: flatten children now that every node has its index.
  size_t ri = 0;
  for (size_t id = 0; id < a.count_.size(); ++id) {
    if (a.count_[id] > 0) {
      DTREE_CHECK(ri < raw_children.size() &&
                  raw_children[ri].first == static_cast<uint32_t>(id));
      for (uint32_t c : raw_children[ri].second) a.child_.push_back(c);
      ++ri;
    }
    a.child_begin_.push_back(static_cast<uint32_t>(a.child_.size()));
  }
  return a;
}

Status TrianTreeArena::ProbeInto(const geom::Point& p,
                                 bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  const uint32_t* cand = roots_.data();
  size_t ncand = roots_.size();
  int budget = budget_;
  for (;;) {
    int64_t found = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < ncand; ++i) {
      const uint32_t c = cand[i];
      if (--budget < 0) {
        return Status::DataLoss("trian-tree decode budget exhausted");
      }
      // A client reads the whole node, so the log gains the node's full
      // packet span whether or not it matches.
      for (int k = first_packet_[c]; k <= last_packet_[c]; ++k) {
        if (trace->packets.empty() || trace->packets.back() != k) {
          trace->packets.push_back(k);
        }
      }
      if (tri_[c].Contains(p)) {
        found = c;
        break;
      }
      // Numeric crack between adjacent triangles: remember the nearest
      // (same fallback TrianTree::ProbeInto applies).
      const double d = DistanceToTriangle(tri_[c], p);
      if (d < best_dist) {
        best_dist = d;
        found = c;
      }
    }
    if (found < 0) {
      return Status::DataLoss("query point escaped the triangulation");
    }
    const uint32_t f = static_cast<uint32_t>(found);
    if (count_[f] == 0) {
      const uint32_t ptr = data_ptr_[f];
      if (ptr == bcast::kOutsideRegionPtr) {
        return Status::NotFound("query point outside the service area");
      }
      trace->region = bcast::DataPointerRegion(ptr);
      return Status::OK();
    }
    cand = child_.data() + child_begin_[f];
    ncand = static_cast<size_t>(count_[f]);
  }
}

size_t TrianTreeArena::ArenaBytes() const {
  return sizeof(geom::Triangle) * tri_.capacity() +
         sizeof(int32_t) * (count_.capacity() + first_packet_.capacity() +
                            last_packet_.capacity()) +
         sizeof(uint32_t) * (data_ptr_.capacity() + child_begin_.capacity() +
                             child_.capacity() + roots_.capacity());
}

Result<bcast::ArenaIndex> BuildTrianTreeArenaIndex(const TrianTree& tree,
                                                   int num_regions) {
  Result<bcast::PacketBuffer> packets = tree.SerializePackets();
  if (!packets.ok()) return packets.status();
  Result<TrianTreeArena> arena =
      TrianTreeArena::Build(packets.value(), tree.PacketCapacity(),
                            /*framed=*/false, tree.RootLocations(),
                            num_regions);
  if (!arena.ok()) return arena.status();
  return bcast::ArenaIndex(
      tree, std::make_unique<TrianTreeArena>(std::move(arena).value()));
}

}  // namespace dtree::baselines
