#include "baselines/rstar/arena.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "baselines/rstar/rstar.h"
#include "broadcast/params.h"
#include "geom/polygon.h"

namespace dtree::baselines {

Result<RStarArena> RStarArena::Build(const bcast::PacketBuffer& packets,
                                     int packet_capacity, bool framed,
                                     int num_regions) {
  if (packets.num_packets() == 0) {
    return Status::InvalidArgument("no packets");
  }
  if (packet_capacity <
      static_cast<int>(kRStarNodeHeader + 2 * kRStarEntrySize)) {
    return Status::InvalidArgument(
        "packet capacity cannot hold an R*-tree node");
  }
  const int max_count =
      (packet_capacity - static_cast<int>(kRStarNodeHeader)) /
      static_cast<int>(kRStarEntrySize);
  const size_t max_verts =
      packets.num_packets() * static_cast<size_t>(packet_capacity) / 8;
  const size_t cap = static_cast<size_t>(packet_capacity);

  RStarArena a;
  a.decoded_ = true;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());
  a.entry_begin_.push_back(0);
  a.ring_begin_.push_back(0);

  // A node fills its packet, so the cycle holds at most one per packet.
  bcast::NodeDiscovery discovery(packets, packet_capacity, cap);
  DTREE_RETURN_IF_ERROR(discovery.Intern(0).status());  // the root, (0, 0)

  for (uint32_t key; discovery.Next(&key);) {
    const int pkt = bcast::NodePointerPacket(key);

    bcast::PacketReader r(packets, packet_capacity, framed, pkt, 0, nullptr);
    uint16_t bid;
    DTREE_RETURN_IF_ERROR(r.ReadU16(&bid));
    const bool leaf = (bid & 0x8000u) != 0;
    const int count = bid & 0x7fff;
    if (count > max_count) {
      return Status::DataLoss("r*-tree node entry count " +
                              std::to_string(count) +
                              " exceeds the packet capacity");
    }
    a.leaf_.push_back(leaf ? 1 : 0);
    a.packet_.push_back(pkt);

    std::vector<uint16_t> ptrs(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      float min_x, min_y, max_x, max_y;
      DTREE_RETURN_IF_ERROR(r.ReadF32(&min_x));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&min_y));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&max_x));
      DTREE_RETURN_IF_ERROR(r.ReadF32(&max_y));
      DTREE_RETURN_IF_ERROR(r.ReadU16(&ptrs[static_cast<size_t>(i)]));
      a.ebox_.push_back(geom::BBox{min_x, min_y, max_x, max_y});
    }

    if (!leaf) {
      for (int i = 0; i < count; ++i) {
        const int child = ptrs[static_cast<size_t>(i)];
        // Strictly forward: rules out pointer cycles on corrupt bytes.
        if (child <= pkt || child >= static_cast<int>(packets.num_packets())) {
          return Status::DataLoss(
              "child pointer does not move forward on the channel");
        }
        // A u16 packet id always fits the 19-bit field.
        Result<uint32_t> id =
            discovery.Intern(bcast::EncodeNodePointer(child, 0).value());
        if (!id.ok()) return id.status();
        a.target_.push_back(id.value());
        a.shape_first_.push_back(-1);
        a.shape_num_.push_back(0);
        a.shape_offset_.push_back(0);
        a.attempts_.push_back(0);
        a.ring_begin_.push_back(static_cast<uint32_t>(a.rx_.size()));
      }
      a.entry_begin_.push_back(static_cast<uint32_t>(a.ebox_.size()));
      continue;
    }

    // Leaf: replay the writer's ShapeCursor once, here, so probes never
    // re-walk it. A shape the writer bumped to the next packet leaves zero
    // padding behind; the shape header tells a real shape from padding.
    ShapeCursor cursor(pkt, cap);
    for (int i = 0; i < count; ++i) {
      const uint16_t eptr = ptrs[static_cast<size_t>(i)];
      bool placed = false;
      uint8_t attempts = 0;
      for (int attempt = 0; attempt < 2 && !placed; ++attempt) {
        ++attempts;
        if (!cursor.Fits(kRStarShapeHeader)) {  // header never straddles
          cursor.NextPacket();
          continue;
        }
        bcast::PacketReader sr(packets, packet_capacity, framed,
                               cursor.packet(), cursor.offset(), nullptr);
        uint16_t sbid, sptr, nverts;
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&sbid));
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&sptr));
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&nverts));
        const size_t size =
            kRStarShapeHeader + nverts * 2 * bcast::kCoordinateSize;
        // A shape that does not fit here is padding (or corruption): the
        // shape was bumped to the next packet.
        if (sptr != eptr || nverts < 3 ||
            static_cast<size_t>(nverts) > max_verts || !cursor.Fits(size)) {
          if (cursor.offset() == 0) {
            return Status::DataLoss(
                "shape header does not match its leaf entry");
          }
          cursor.NextPacket();
          continue;
        }
        const int first = cursor.packet();
        const size_t first_offset = cursor.offset();
        for (int v = 0; v < nverts; ++v) {
          float x, y;
          DTREE_RETURN_IF_ERROR(sr.ReadF32(&x));
          DTREE_RETURN_IF_ERROR(sr.ReadF32(&y));
          a.rx_.push_back(x);
          a.ry_.push_back(y);
        }
        const int num = cursor.Place(size);
        placed = true;
        DTREE_RETURN_IF_ERROR(bcast::CheckRegion(sptr, num_regions));
        a.target_.push_back(sptr);
        a.shape_first_.push_back(first);
        a.shape_num_.push_back(num);
        a.shape_offset_.push_back(static_cast<uint32_t>(first_offset));
      }
      if (!placed) {
        return Status::DataLoss("shape header does not match its leaf entry");
      }
      a.attempts_.push_back(attempts);
      a.ring_begin_.push_back(static_cast<uint32_t>(a.rx_.size()));
    }
    a.entry_begin_.push_back(static_cast<uint32_t>(a.ebox_.size()));
  }
  a.ShrinkToFit();
  return a;
}

void RStarArena::ShrinkToFit() {
  leaf_.shrink_to_fit();
  packet_.shrink_to_fit();
  entry_begin_.shrink_to_fit();
  ebox_.shrink_to_fit();
  target_.shrink_to_fit();
  shape_first_.shrink_to_fit();
  shape_num_.shrink_to_fit();
  shape_offset_.shrink_to_fit();
  attempts_.shrink_to_fit();
  ring_begin_.shrink_to_fit();
  rx_.shrink_to_fit();
  ry_.shrink_to_fit();
}

Status RStarArena::Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                           int* region) const {
  auto touch = [trace](int packet) {
    if (trace != nullptr &&
        (trace->packets.empty() || trace->packets.back() != packet)) {
      trace->packets.push_back(packet);
    }
  };
  const char* kBudget = "r*-tree descent exceeded its work budget";

  int best_fallback = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  int budget = budget_;

  thread_local std::vector<uint32_t> stack;
  stack.assign(1, 0);
  while (!stack.empty()) {
    const uint32_t cur = stack.back();
    stack.pop_back();
    if (--budget < 0) return bcast::DescentFailure(decoded_, kBudget);
    touch(packet_[cur]);
    const uint32_t eb = entry_begin_[cur];
    const uint32_t ee = entry_begin_[cur + 1];
    if (leaf_[cur] == 0) {
      // Depth-first: push matching children in reverse so the leftmost
      // (earliest on the channel) is explored first.
      for (uint32_t i = ee; i-- > eb;) {
        if (ebox_[i].Contains(p)) stack.push_back(target_[i]);
      }
      continue;
    }
    for (uint32_t i = eb; i < ee; ++i) {
      // A client's placement walk passes every leaf entry, wanted or
      // not; charge each entry the walk's recorded cost.
      budget -= attempts_[i];
      if (budget < 0) return bcast::DescentFailure(decoded_, kBudget);
      if (!ebox_[i].Contains(p)) continue;
      for (int k = 0; k < shape_num_[i]; ++k) touch(shape_first_[i] + k);
      const size_t rb = ring_begin_[i];
      const size_t rn = ring_begin_[i + 1] - rb;
      if (geom::PointInRing(rx_.data() + rb, ry_.data() + rb, rn, p)) {
        *region = static_cast<int>(target_[i]);
        return Status::OK();
      }
      const double d =
          geom::RingDistanceToBoundary(rx_.data() + rb, ry_.data() + rb, rn, p);
      if (d < best_dist) {
        best_dist = d;
        best_fallback = static_cast<int>(target_[i]);
      }
    }
  }
  if (best_fallback >= 0) {
    // Numeric gap between adjacent shapes: resolve to the nearest tested
    // region (the answer is ambiguous within tolerance anyway).
    *region = best_fallback;
    return Status::OK();
  }
  return bcast::DescentFailure(decoded_, "query point escaped every leaf MBR");
}

size_t RStarArena::ArenaBytes() const {
  return leaf_.capacity() + attempts_.capacity() +
         sizeof(geom::BBox) * ebox_.capacity() +
         sizeof(int32_t) * (packet_.capacity() + shape_first_.capacity() +
                            shape_num_.capacity()) +
         sizeof(uint32_t) * (entry_begin_.capacity() + target_.capacity() +
                             shape_offset_.capacity() +
                             ring_begin_.capacity()) +
         sizeof(double) * (rx_.capacity() + ry_.capacity());
}

Result<bcast::ArenaIndex> BuildRStarArenaIndex(const RStarTree& tree,
                                               int num_regions) {
  Result<bcast::PacketBuffer> packets = tree.SerializePackets();
  if (!packets.ok()) return packets.status();
  Result<RStarArena> arena =
      RStarArena::Build(packets.value(), tree.PacketCapacity(),
                        /*framed=*/false, num_regions);
  if (!arena.ok()) return arena.status();
  return bcast::ArenaIndex(
      tree, std::make_unique<RStarArena>(std::move(arena).value()));
}

}  // namespace dtree::baselines
