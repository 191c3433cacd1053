#include "baselines/rstar/arena.h"

#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "baselines/rstar/rstar.h"
#include "broadcast/params.h"
#include "geom/polygon.h"

namespace dtree::baselines {

namespace {

constexpr size_t kEntrySize = 4 * bcast::kCoordinateSize +  // MBR
                              bcast::kRStarPointerSize;     // child/shape
constexpr size_t kNodeHeader = bcast::kBidSize;
constexpr size_t kShapeHeader = 3 * sizeof(uint16_t);

}  // namespace

Result<RStarArena> RStarArena::Build(const bcast::PacketBuffer& packets,
                                     int packet_capacity, bool framed,
                                     int num_regions) {
  if (packets.num_packets() == 0) {
    return Status::InvalidArgument("no packets");
  }
  if (packet_capacity < static_cast<int>(kNodeHeader + 2 * kEntrySize)) {
    return Status::InvalidArgument(
        "packet capacity cannot hold an R*-tree node");
  }
  const int max_count = (packet_capacity - static_cast<int>(kNodeHeader)) /
                        static_cast<int>(kEntrySize);
  const size_t max_verts =
      packets.num_packets() * static_cast<size_t>(packet_capacity) / 8;
  const size_t cap = static_cast<size_t>(packet_capacity);

  RStarArena a;
  a.decoded_ = true;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());
  a.entry_begin_.push_back(0);
  a.ring_begin_.push_back(0);

  std::unordered_map<int, uint32_t> index_of;  // wire packet -> arena id
  std::deque<int> pending;
  index_of.emplace(0, 0u);
  pending.push_back(0);

  // Child links are discovered before their nodes get arena ids, so they
  // are recorded per entry and remain valid because `intern` assigns ids
  // in the same order `pending` is drained.
  auto intern = [&](int pkt) -> uint32_t {
    const auto [it, inserted] =
        index_of.emplace(pkt, static_cast<uint32_t>(index_of.size()));
    if (inserted) pending.push_back(pkt);
    return it->second;
  };

  while (!pending.empty()) {
    const int pkt = pending.front();
    pending.pop_front();

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
        a.target_.push_back(intern(child));
        a.shape_first_.push_back(-1);
        a.shape_num_.push_back(0);
        a.shape_offset_.push_back(0);
        a.attempts_.push_back(0);
        a.ring_begin_.push_back(static_cast<uint32_t>(a.rx_.size()));
      }
      a.entry_begin_.push_back(static_cast<uint32_t>(a.ebox_.size()));
      continue;
    }

    // Leaf: replay the writer's shape placement cursor once, here, so
    // probes never re-walk it. The writer places each shape at the
    // current fill offset when it fits the packet's remainder and
    // otherwise bumps it to a fresh packet (zero padding in between); the
    // shape header tells a real shape from padding.
    int spkt = pkt + 1;
    size_t soff = 0;
    for (int i = 0; i < count; ++i) {
      const uint16_t eptr = ptrs[static_cast<size_t>(i)];
      bool placed = false;
      uint8_t attempts = 0;
      for (int attempt = 0; attempt < 2 && !placed; ++attempt) {
        ++attempts;
        if (soff + kShapeHeader > cap) {  // header never straddles
          ++spkt;
          soff = 0;
          continue;
        }
        bcast::PacketReader sr(packets, packet_capacity, framed, spkt, soff,
                               nullptr);
        uint16_t sbid, sptr, nverts;
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&sbid));
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&sptr));
        DTREE_RETURN_IF_ERROR(sr.ReadU16(&nverts));
        const size_t size = kShapeHeader + nverts * 2 * sizeof(float);
        // A shape at a nonzero offset always fits its packet's remainder;
        // anything else here is padding (or corruption): the shape was
        // bumped to the next packet.
        if (sptr != eptr || nverts < 3 ||
            static_cast<size_t>(nverts) > max_verts ||
            (soff != 0 && size > cap - soff)) {
          if (soff == 0) {
            return Status::DataLoss(
                "shape header does not match its leaf entry");
          }
          ++spkt;
          soff = 0;
          continue;
        }
        const int first = spkt;
        const size_t first_offset = soff;
        for (int v = 0; v < nverts; ++v) {
          float x, y;
          DTREE_RETURN_IF_ERROR(sr.ReadF32(&x));
          DTREE_RETURN_IF_ERROR(sr.ReadF32(&y));
          a.rx_.push_back(x);
          a.ry_.push_back(y);
        }
        // Advance the cursor past this shape exactly as the writer did.
        int num = 1;
        if (soff == 0) {
          size_t rest = size;
          while (rest > cap) {
            rest -= cap;
            ++spkt;
            ++num;
          }
          soff = rest;
        } else {
          soff += size;
        }
        placed = true;
        const int region = sptr;
        if (region >= num_regions) {
          return Status::DataLoss("data pointer to out-of-range region " +
                                  std::to_string(region));
        }
        a.target_.push_back(static_cast<uint32_t>(region));
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

Status RStarArena::ProbeInto(const geom::Point& p,
                             bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  return Descend(p, trace, &trace->region);
}

int RStarArena::Locate(const geom::Point& p) const {
  int region = -1;
  return Descend(p, nullptr, &region).ok() ? region : -1;
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
