#include "baselines/trapmap/arena.h"

#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "baselines/trapmap/trapmap.h"
#include "geom/predicates.h"

namespace dtree::baselines {

namespace {

using bcast::kDataPtrBit;
using bcast::kOffsetBits;
using bcast::kOffsetMask;

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

  const size_t max_nodes =
      packets.num_packets() * static_cast<size_t>(packet_capacity) /
          kMinNodeBytes +
      16;
  std::unordered_map<uint32_t, uint32_t> index_of;  // wire key -> arena id
  std::deque<uint32_t> pending;
  index_of.emplace(0u, 0u);
  pending.push_back(0u);

  while (!pending.empty()) {
    const uint32_t key = pending.front();
    pending.pop_front();
    Node node;
    node.packet = static_cast<int>(key >> kOffsetBits);
    node.offset = key & kOffsetMask;

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
      if (ptr & kDataPtrBit) {
        const int region = static_cast<int>(ptr & ~kDataPtrBit);
        if (region >= num_regions) {
          return Status::DataLoss("data pointer to out-of-range region " +
                                  std::to_string(region));
        }
        return ptr;
      }
      const int cpkt = static_cast<int>(ptr >> kOffsetBits);
      const size_t coff = ptr & kOffsetMask;
      if (cpkt >= static_cast<int>(packets.num_packets())) {
        return Status::DataLoss("node pointer outside the packet stream");
      }
      if (coff >= static_cast<size_t>(packet_capacity)) {
        return Status::DataLoss("node pointer offset outside the packet");
      }
      const auto [it, inserted] =
          index_of.emplace(ptr, static_cast<uint32_t>(index_of.size()));
      if (inserted) {
        if (index_of.size() > max_nodes) {
          return Status::DataLoss(
              "decoded node count exceeds what the cycle can hold");
        }
        pending.push_back(ptr);
      }
      return it->second;
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
    if (next & kDataPtrBit) {
      *region = static_cast<int>(next & ~kDataPtrBit);
      return Status::OK();
    }
    cur = next;
  }
  return bcast::DescentFailure(decoded_,
                               "trap-tree descent exceeded its hop budget");
}

Status TrapMapArena::ProbeInto(const geom::Point& p,
                               bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  return Descend(p, trace, &trace->region);
}

int TrapMapArena::Locate(const geom::Point& p) const {
  int region = -1;
  return Descend(p, nullptr, &region).ok() ? region : -1;
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
