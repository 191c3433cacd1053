#include "baselines/kirkpatrick/arena.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "geom/predicates.h"

namespace dtree::baselines {

namespace {

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
  a.decoded_ = true;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());

  bcast::NodeDiscovery discovery(packets, packet_capacity, kMinNodeBytes);
  for (const auto& [pkt, off] : roots) {
    if (pkt < 0 || pkt >= static_cast<int>(packets.num_packets()) ||
        off >= static_cast<size_t>(packet_capacity)) {
      return Status::InvalidArgument("root location outside the stream");
    }
    Result<uint32_t> ptr = bcast::EncodeNodePointer(pkt, off);
    Result<uint32_t> id = ptr.ok() ? discovery.Intern(ptr.value()) : ptr;
    if (!id.ok()) return id.status();
    a.roots_.push_back(id.value());
  }

  std::vector<uint32_t> ptrs;
  for (uint32_t key; discovery.Next(&key);) {
    Node node;
    node.first_packet = bcast::NodePointerPacket(key);
    node.offset = static_cast<uint32_t>(bcast::NodePointerOffset(key));

    bcast::PacketReader r(packets, packet_capacity, framed,
                          node.first_packet, node.offset, nullptr);
    uint16_t bid;
    DTREE_RETURN_IF_ERROR(r.ReadU16(&bid));
    node.count = bid >> 12;
    for (int i = 0; i < 3; ++i) {
      float x, y;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&x));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&y));
      node.tri.v[i] = geom::Point{x, y};
    }
    // f32 rounding can flip the orientation of a sliver triangle;
    // Contains() assumes CCW.
    node.tri.EnsureCCW();

    ptrs.resize(static_cast<size_t>(std::max(1, node.count)));
    for (uint32_t& ptr : ptrs) DTREE_RETURN_IF_ERROR(r.ReadU32(&ptr));
    const size_t node_bytes = 2 + 24 + 4 * ptrs.size();
    node.last_packet =
        node.first_packet +
        static_cast<int>((node.offset + node_bytes - 1) /
                         static_cast<size_t>(packet_capacity));

    if (node.count == 0) {
      const uint32_t ptr = ptrs[0];
      if (!bcast::IsDataPointer(ptr)) {
        return Status::DataLoss("base triangle without a data pointer");
      }
      if (ptr != bcast::kOutsideRegionPtr) {
        DTREE_RETURN_IF_ERROR(
            bcast::CheckRegion(bcast::DataPointerRegion(ptr), num_regions));
      }
      node.data_ptr = ptr;
    } else {
      node.first_child = static_cast<uint32_t>(a.child_.size());
      for (const uint32_t ptr : ptrs) {
        if (bcast::IsDataPointer(ptr)) {
          return Status::DataLoss(
              "unexpected data pointer in an internal trian-tree node");
        }
        Result<uint32_t> id = discovery.Intern(ptr);
        if (!id.ok()) return id.status();
        a.child_.push_back(id.value());
      }
    }
    a.nodes_.push_back(node);
  }
  a.ShrinkToFit();
  return a;
}

void TrianTreeArena::ShrinkToFit() {
  roots_.shrink_to_fit();
  nodes_.shrink_to_fit();
  child_.shrink_to_fit();
}

Status TrianTreeArena::Descend(const geom::Point& p,
                               bcast::ProbeTrace* trace, int* region) const {
  const uint32_t* cand = roots_.data();
  size_t ncand = roots_.size();
  int budget = budget_;
  for (;;) {
    int64_t found = -1;
    for (size_t i = 0; i < ncand && found < 0; ++i) {
      const Node& c = nodes_[cand[i]];
      if (--budget < 0) {
        return bcast::DescentFailure(
            decoded_, "trian-tree descent exceeded its scan budget");
      }
      // A client reads the whole node, so the log gains the node's full
      // packet span whether or not it matches.
      for (int k = c.first_packet; trace != nullptr && k <= c.last_packet;
           ++k) {
        if (trace->packets.empty() || trace->packets.back() != k) {
          trace->packets.push_back(k);
        }
      }
      if (c.tri.Contains(p)) found = cand[i];
    }
    if (found < 0) {
      // Numeric crack between adjacent triangles: the first nearest
      // candidate answers.
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < ncand; ++i) {
        const double d = DistanceToTriangle(nodes_[cand[i]].tri, p);
        if (d < best_dist) {
          best_dist = d;
          found = cand[i];
        }
      }
    }
    if (found < 0) {
      return bcast::DescentFailure(decoded_,
                                   "query point escaped the triangulation");
    }
    const Node& f = nodes_[static_cast<size_t>(found)];
    if (f.count == 0) {
      if (f.data_ptr == bcast::kOutsideRegionPtr) {
        return Status::NotFound("query point outside the service area");
      }
      *region = bcast::DataPointerRegion(f.data_ptr);
      return Status::OK();
    }
    cand = child_.data() + f.first_child;
    ncand = static_cast<size_t>(f.count);
  }
}

size_t TrianTreeArena::ArenaBytes() const {
  return sizeof(Node) * nodes_.capacity() +
         sizeof(uint32_t) * (roots_.capacity() + child_.capacity());
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
