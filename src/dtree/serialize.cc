#include "dtree/serialize.h"

#include "common/bytes.h"
#include "common/check.h"
#include "dtree/wire.h"
#include "geom/predicates.h"

namespace dtree::core {

namespace {

using bcast::PacketReader;

constexpr int kMaxScalarCoords = (1 << 14) - 1;

}  // namespace

Result<int> QueryFromPackets(const bcast::PacketBuffer& packets,
                             int packet_capacity, bool framed,
                             bool early_termination, const geom::Point& p,
                             std::vector<int>* packets_read) {
  if (packets.num_packets() == 0) return Status::InvalidArgument("no packets");
  if (packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  int packet = 0;
  size_t offset = 0;
  const int budget = bcast::DecodeBudget(packets.num_packets());
  // Polyline point scratch, reused across chains, nodes, and queries:
  // the descent itself never heap-allocates once the scratch is warm.
  thread_local std::vector<double> sx, sy;
  for (int hops = 0; hops < budget; ++hops) {
    PacketReader r(packets, packet_capacity, framed, packet, offset,
                   packets_read);
    WireNodePrefix n;
    DTREE_RETURN_IF_ERROR(ReadWireNodePrefix(&r, &n));

    bool go_left = false;
    bool decided = false;
    // Only stop reading mid-node when early termination is enabled —
    // otherwise fall through and read the whole node like a client
    // without the §4.4 arrangement would.
    if (n.has_bounds && early_termination) {
      if (n.dim == PartitionDim::kYDim) {
        if (p.x <= n.lmc) {
          go_left = true;
          decided = true;
        } else if (p.x >= n.rmc) {
          go_left = false;
          decided = true;
        }
      } else {
        if (p.y >= n.lmc) {
          go_left = true;
          decided = true;
        } else if (p.y <= n.rmc) {
          go_left = false;
          decided = true;
        }
      }
    }
    if (!decided) {
      // Read the partition and run Algorithm 2 in full. The ray-crossing
      // parity accumulates per chain while streaming; the D1/D3 shortcut
      // against the (possibly reconstructed) bounds is applied after,
      // exactly as Algorithm 2 orders its checks.
      double min_c, max_c;
      int crossings = 0;
      DTREE_RETURN_IF_ERROR(ReadWirePolylines(
          &r, n.dim, n.total_coords, &sx, &sy, &min_c, &max_c,
          [&](const double* xs, const double* ys, size_t cnt, bool closed) {
            if (cnt < 2) return;
            const size_t nseg = closed ? cnt : cnt - 1;
            for (size_t i = 0; i < nseg; ++i) {
              const size_t j = (i + 1) % cnt;
              const geom::Point a{xs[i], ys[i]}, b{xs[j], ys[j]};
              if (n.dim == PartitionDim::kYDim) {
                crossings += geom::RayRightCrossesSegment(p, a, b) ? 1 : 0;
              } else {
                crossings += geom::RayDownCrossesSegment(p, a, b) ? 1 : 0;
              }
            }
          }));
      const auto [near_b, far_b] = WireShortcutBounds(n, min_c, max_c);
      if (n.dim == PartitionDim::kYDim) {
        if (p.x <= near_b) {
          go_left = true;   // D1: all-left
        } else if (p.x >= far_b) {
          go_left = false;  // D3: all-right
        } else {
          go_left = (crossings % 2) == 1;
        }
      } else {
        if (p.y >= near_b) {
          go_left = true;   // all-upper
        } else if (p.y <= far_b) {
          go_left = false;  // all-lower
        } else {
          go_left = (crossings % 2) == 1;
        }
      }
    }

    const uint32_t ptr = go_left ? n.left_ptr : n.right_ptr;
    if (bcast::IsDataPointer(ptr)) return bcast::DataPointerRegion(ptr);
    DTREE_RETURN_IF_ERROR(bcast::CheckNodePointer(ptr, packets.num_packets(),
                                                  packet_capacity));
    packet = bcast::NodePointerPacket(ptr);
    offset = bcast::NodePointerOffset(ptr);
  }
  return Status::DataLoss("decode descent did not terminate");
}

Result<bcast::PacketBuffer> SerializeDTree(const DTree& tree) {
  const int capacity = tree.PacketCapacity();
  bcast::PacketBuffer packets(static_cast<size_t>(tree.NumIndexPackets()),
                              static_cast<size_t>(capacity));
  if (tree.root() < 0) return packets;  // single-region: empty index

  for (int bfs = 0; bfs < tree.num_nodes(); ++bfs) {
    const int id = tree.bfs_order()[bfs];
    const DTreeNode& n = tree.node(id);
    const bcast::NodeSpan& s = tree.span(id);
    const uint32_t num_chains = tree.layout().num_chains(id);

    int total_coords = 0;
    for (uint32_t k = 0; k < num_chains; ++k) {
      const DTreeArena::Chain pl = tree.layout().chain(id, k);
      total_coords += 2 * static_cast<int>(pl.pts.size() + (pl.closed ? 1 : 0));
    }
    if (total_coords > kMaxScalarCoords) {
      return Status::InvalidArgument(
          "partition too large for the 14-bit header size field");
    }

    ByteWriter w;
    w.Reserve(n.byte_size);
    // The on-air node id is self-identification only (clients read and
    // discard it; descent uses packet/offset pointers). Table 2 gives it
    // two bytes, so at SCALE sizes (> 64Ki internal nodes) the BFS number
    // wraps rather than failing the whole build.
    w.PutU16(static_cast<uint16_t>(bfs & 0xffff));
    uint16_t header = 0;
    if (n.dim == PartitionDim::kXDim) header |= 1;
    if (n.explicit_bounds) header |= 2;
    header |= static_cast<uint16_t>(total_coords) << 2;
    w.PutU16(header);

    auto encode_child = [&](int child_node,
                            int child_region) -> Result<uint32_t> {
      if (child_node >= 0) {
        const bcast::NodeSpan& cs = tree.span(child_node);
        return bcast::EncodeNodePointer(cs.first_packet, cs.offset);
      }
      if (child_region < 0) {
        return Status::Internal("child is neither a node nor a region");
      }
      return bcast::EncodeDataPointer(child_region);
    };
    Result<uint32_t> left = encode_child(n.left_node, n.left_region);
    if (!left.ok()) return left.status();
    Result<uint32_t> right = encode_child(n.right_node, n.right_region);
    if (!right.ok()) return right.status();
    w.PutU32(left.value());
    w.PutU32(right.value());

    if (n.explicit_bounds) {
      w.PutF32(static_cast<float>(n.far_bound));   // RMC
      w.PutF32(static_cast<float>(n.near_bound));  // LMC
    }
    for (uint32_t k = 0; k < num_chains; ++k) {
      const DTreeArena::Chain pl = tree.layout().chain(id, k);
      const size_t points = pl.pts.size() + (pl.closed ? 1 : 0);
      DTREE_RETURN_IF_ERROR(w.PutU16Checked(points, "polyline point count"));
      for (const geom::Point& p : pl.pts) {
        w.PutF32(static_cast<float>(p.x));
        w.PutF32(static_cast<float>(p.y));
      }
      if (pl.closed) {
        w.PutF32(static_cast<float>(pl.pts.front().x));
        w.PutF32(static_cast<float>(pl.pts.front().y));
      }
    }
    // Packets are contiguous in the flat buffer, so a node that spills
    // into the following packet(s) is still one straight copy.
    DTREE_RETURN_IF_ERROR(packets.WriteNode(
        static_cast<size_t>(s.first_packet), s.offset, w.bytes(),
        n.byte_size));
  }
  return packets;
}

}  // namespace dtree::core
