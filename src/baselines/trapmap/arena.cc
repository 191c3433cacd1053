#include "baselines/trapmap/arena.h"

#include <deque>
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
    const int packet = static_cast<int>(key >> kOffsetBits);
    const size_t offset = key & kOffsetMask;

    bcast::PacketReader r(packets, packet_capacity, framed, packet, offset,
                          nullptr);
    uint16_t bid;
    uint32_t left, right;
    DTREE_RETURN_IF_ERROR(r.ReadU16(&bid));
    DTREE_RETURN_IF_ERROR(r.ReadU32(&left));
    DTREE_RETURN_IF_ERROR(r.ReadU32(&right));
    const bool is_y = (bid & 0x8000u) != 0;
    a.is_y_.push_back(is_y ? 1 : 0);
    a.packet_.push_back(packet);
    if (is_y) {
      float px, py, qx, qy;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&px));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&py));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&qx));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&qy));
      a.px_.push_back(px);
      a.py_.push_back(py);
      a.qx_.push_back(qx);
      a.qy_.push_back(qy);
      a.x_.push_back(0.0);
    } else {
      float x;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&x));
      a.x_.push_back(x);
      a.px_.push_back(0.0);
      a.py_.push_back(0.0);
      a.qx_.push_back(0.0);
      a.qy_.push_back(0.0);
    }

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
    a.left_.push_back(l.value());
    a.right_.push_back(rr.value());
  }
  return a;
}

Status TrapMapArena::ProbeInto(const geom::Point& p,
                               bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  uint32_t cur = 0;
  for (int hops = 0; hops < budget_; ++hops) {
    const int pkt = packet_[cur];
    if (trace->packets.empty() || trace->packets.back() != pkt) {
      trace->packets.push_back(pkt);
    }
    uint32_t next;
    if (is_y_[cur] == 0) {
      next = p.x < x_[cur] ? left_[cur] : right_[cur];
    } else {
      const double v = geom::OrientValue({px_[cur], py_[cur]},
                                         {qx_[cur], qy_[cur]}, p);
      next = v > 0.0 ? left_[cur] : right_[cur];
    }
    if (next & kDataPtrBit) {
      trace->region = static_cast<int>(next & ~kDataPtrBit);
      return Status::OK();
    }
    cur = next;
  }
  return Status::DataLoss("trap-tree decode budget exhausted");
}

size_t TrapMapArena::ArenaBytes() const {
  return is_y_.capacity() +
         sizeof(double) * (x_.capacity() + px_.capacity() + py_.capacity() +
                           qx_.capacity() + qy_.capacity()) +
         sizeof(uint32_t) * (left_.capacity() + right_.capacity()) +
         sizeof(int32_t) * packet_.capacity();
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
