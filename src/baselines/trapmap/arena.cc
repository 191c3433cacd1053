#include "baselines/trapmap/arena.h"

#include <limits>
#include <memory>
#include <utility>

#include "baselines/trapmap/trapmap.h"
#include "geom/predicates.h"

namespace dtree::baselines {

namespace {

/// Smallest node on the wire: an x-node (bid + two pointers + one f32).
constexpr size_t kMinNodeBytes = 14;

}  // namespace

Result<TrapMapArena> TrapMapArena::Build(const bcast::PacketBuffer& packets,
                                         int packet_capacity, bool framed,
                                         int num_regions) {
  if (packets.num_packets() == 0) {
    return Status::InvalidArgument("no packets");
  }
  if (packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  TrapMapArena a;
  a.decoded_ = true;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());

  bcast::NodeDiscovery discovery(packets, packet_capacity, kMinNodeBytes);
  DTREE_RETURN_IF_ERROR(discovery.Intern(0).status());  // the root, (0, 0)

  for (uint32_t key; discovery.Next(&key);) {
    Node node;
    node.packet = bcast::NodePointerPacket(key);
    node.offset = static_cast<uint32_t>(bcast::NodePointerOffset(key));

    bcast::PacketReader r(packets, packet_capacity, framed, node.packet,
                          node.offset, nullptr);
    uint16_t bid;
    uint32_t left, right;
    DTREE_RETURN_IF_ERROR(r.ReadU16(&bid));
    DTREE_RETURN_IF_ERROR(r.ReadU32(&left));
    DTREE_RETURN_IF_ERROR(r.ReadU32(&right));
    node.is_y = (bid & 0x8000u) != 0;
    for (int k = 0; k < (node.is_y ? 4 : 1); ++k) {
      float v;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&v));
      node.a[k] = v;
    }
    if (!node.is_y) node.a[1] = -std::numeric_limits<double>::infinity();

    // Validate and remap children: data pointers must label a real
    // region, node pointers must land inside the stream.
    auto remap = [&](uint32_t ptr) -> Result<uint32_t> {
      if (!bcast::IsDataPointer(ptr)) return discovery.Intern(ptr);
      DTREE_RETURN_IF_ERROR(
          bcast::CheckRegion(bcast::DataPointerRegion(ptr), num_regions));
      return ptr;
    };
    Result<uint32_t> l = remap(left);
    if (!l.ok()) return l.status();
    Result<uint32_t> rr = remap(right);
    if (!rr.ok()) return rr.status();
    node.left = l.value();
    node.right = rr.value();
    a.nodes_.push_back(node);
  }
  a.nodes_.shrink_to_fit();
  return a;
}

Status TrapMapArena::Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                             int* region) const {
  uint32_t cur = 0;
  for (int hops = 0; hops < budget_; ++hops) {
    const Node& n = nodes_[cur];
    if (trace != nullptr &&
        (trace->packets.empty() || trace->packets.back() != n.packet)) {
      trace->packets.push_back(n.packet);
    }
    const bool left =
        n.is_y ? geom::OrientValue({n.a[0], n.a[1]}, {n.a[2], n.a[3]}, p) > 0.0
               : p.LexLess({n.a[0], n.a[1]});
    const uint32_t next = left ? n.left : n.right;
    if (bcast::IsDataPointer(next)) {
      *region = bcast::DataPointerRegion(next);
      return Status::OK();
    }
    cur = next;
  }
  return bcast::DescentFailure(decoded_,
                               "trap-tree descent exceeded its hop budget");
}

size_t TrapMapArena::ArenaBytes() const {
  return sizeof(Node) * nodes_.capacity();
}

Result<bcast::ArenaIndex> BuildTrapMapArenaIndex(const TrapMap& map,
                                                 int num_regions) {
  Result<bcast::PacketBuffer> packets = map.SerializePackets();
  if (!packets.ok()) return packets.status();
  Result<TrapMapArena> arena =
      TrapMapArena::Build(packets.value(), map.PacketCapacity(),
                          /*framed=*/false, num_regions);
  if (!arena.ok()) return arena.status();
  return bcast::ArenaIndex(
      map, std::make_unique<TrapMapArena>(std::move(arena).value()));
}

}  // namespace dtree::baselines
