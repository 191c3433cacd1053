#include "dtree/arena.h"

#include <deque>
#include <memory>
#include <utility>

#include "dtree/serialize.h"
#include "dtree/wire.h"
#include "geom/predicates.h"

namespace dtree::core {

namespace {

using bcast::kDataPtrBit;
using bcast::kOffsetBits;
using bcast::kOffsetMask;

/// Fixed node-prefix bytes: bid + header + two pointers.
constexpr size_t kNodePrefixBytes = 12;

}  // namespace

Result<DTreeArena> DTreeArena::Build(const bcast::PacketBuffer& packets,
                                     int packet_capacity, bool framed,
                                     bool early_termination, int num_regions,
                                     const OriginMap* origins) {
  if (packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  DTreeArena a;
  a.has_origins_ = origins != nullptr;
  a.num_regions_ = num_regions;
  a.budget_ = bcast::DecodeBudget(packets.num_packets());
  a.seg_begin_.push_back(0);
  if (packets.num_packets() == 0) return a;  // single-region: empty index

  // Genuine nodes are at least kNodePrefixBytes long and do not overlap,
  // so this caps how many a well-formed cycle can hold; corrupted-but-
  // CRC-valid bytes whose pointer graph exceeds it fail the build.
  const size_t max_nodes =
      packets.num_packets() * static_cast<size_t>(packet_capacity) /
          kNodePrefixBytes +
      16;

  std::unordered_map<uint32_t, uint32_t> index_of;  // wire key -> arena id
  std::deque<uint32_t> pending;
  index_of.emplace(0u, 0u);
  pending.push_back(0u);

  std::vector<double> sx, sy;  // polyline point scratch
  while (!pending.empty()) {
    const uint32_t key = pending.front();
    pending.pop_front();
    const int packet = static_cast<int>(key >> kOffsetBits);
    const size_t offset = key & kOffsetMask;

    bcast::PacketReader r(packets, packet_capacity, framed, packet, offset,
                          nullptr);
    WireNodePrefix n;
    DTREE_RETURN_IF_ERROR(ReadWireNodePrefix(&r, &n));

    a.x_dim_.push_back(n.dim == PartitionDim::kXDim ? 1 : 0);
    a.shortcut_ok_.push_back(n.has_bounds && early_termination ? 1 : 0);
    a.lmc_.push_back(n.lmc);
    a.rmc_.push_back(n.rmc);

    double min_c, max_c;
    size_t num_chains = 0;
    DTREE_RETURN_IF_ERROR(ReadWirePolylines(
        &r, n.dim, n.total_coords, &sx, &sy, &min_c, &max_c,
        [&](const double* xs, const double* ys, size_t cnt, bool closed) {
          ++num_chains;
          if (cnt < 2) return;
          const size_t nseg = closed ? cnt : cnt - 1;
          for (size_t i = 0; i < nseg; ++i) {
            const size_t j = (i + 1) % cnt;
            a.ax_.push_back(xs[i]);
            a.ay_.push_back(ys[i]);
            a.bx_.push_back(xs[j]);
            a.by_.push_back(ys[j]);
          }
        }));
    a.seg_begin_.push_back(static_cast<uint32_t>(a.ax_.size()));

    const auto [near_b, far_b] = WireShortcutBounds(n, min_c, max_c);
    a.near_b_.push_back(near_b);
    a.far_b_.push_back(far_b);

    // Packet span of a full node read, from the node's wire size: the
    // read-log gains exactly the packets [first, first + (offset + size
    // - 1) / capacity] because the decoder consumes the bytes in order.
    const size_t node_bytes = kNodePrefixBytes + (n.has_bounds ? 8 : 0) +
                              2 * num_chains +
                              4 * static_cast<size_t>(n.total_coords);
    a.first_packet_.push_back(packet);
    a.full_last_.push_back(
        packet + static_cast<int>((offset + node_bytes - 1) /
                                  static_cast<size_t>(packet_capacity)));

    if (origins != nullptr) {
      const auto it = origins->find(key);
      const bcast::ProbePacketOrigin o =
          it != origins->end() ? it->second : bcast::ProbePacketOrigin{};
      a.origin_node_.push_back(o.node);
      a.origin_depth_.push_back(o.depth);
    }

    // Remap the child pointers: data pointers pass through verbatim; node
    // pointers are validated exactly as the per-probe decoder validates
    // them, then become arena indices (discovering new nodes as we go).
    auto remap = [&](uint32_t ptr) -> Result<uint32_t> {
      if (ptr & kDataPtrBit) return ptr;
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
    Result<uint32_t> left = remap(n.left_ptr);
    if (!left.ok()) return left.status();
    Result<uint32_t> right = remap(n.right_ptr);
    if (!right.ok()) return right.status();
    a.left_.push_back(left.value());
    a.right_.push_back(right.value());
  }
  return a;
}

Status DTreeArena::ProbeInto(const geom::Point& p,
                             bcast::ProbeTrace* trace) const {
  trace->region = -1;
  trace->packets.clear();
  trace->origins.clear();
  if (left_.empty()) {
    if (num_regions_ != 1) return Status::FailedPrecondition("empty tree");
    trace->region = 0;
    return Status::OK();
  }
  uint32_t cur = 0;
  for (int hops = 0; hops < budget_; ++hops) {
    const bool x_dim = x_dim_[cur] != 0;
    bool go_left = false;
    bool decided = false;
    if (shortcut_ok_[cur] != 0) {
      // §4.4 early termination against the explicit bounds in the node's
      // first packet (promoted from the same wire f32s the decoder reads).
      if (!x_dim) {
        if (p.x <= lmc_[cur]) {
          go_left = true;
          decided = true;
        } else if (p.x >= rmc_[cur]) {
          go_left = false;
          decided = true;
        }
      } else {
        if (p.y >= lmc_[cur]) {
          go_left = true;
          decided = true;
        } else if (p.y <= rmc_[cur]) {
          go_left = false;
          decided = true;
        }
      }
    }
    if (!decided) {
      const size_t sb = seg_begin_[cur];
      const size_t nseg = seg_begin_[cur + 1] - sb;
      if (!x_dim) {
        if (p.x <= near_b_[cur]) {
          go_left = true;   // D1: all-left
        } else if (p.x >= far_b_[cur]) {
          go_left = false;  // D3: all-right
        } else {
          go_left = (geom::CountRayRightCrossings(
                         ax_.data() + sb, ay_.data() + sb, bx_.data() + sb,
                         by_.data() + sb, nseg, p) %
                     2) == 1;
        }
      } else {
        if (p.y >= near_b_[cur]) {
          go_left = true;   // all-upper
        } else if (p.y <= far_b_[cur]) {
          go_left = false;  // all-lower
        } else {
          go_left = (geom::CountRayDownCrossings(
                         ax_.data() + sb, ay_.data() + sb, bx_.data() + sb,
                         by_.data() + sb, nseg, p) %
                     2) == 1;
        }
      }
    }

    // Packet accounting: a decided read stops inside the node's first
    // packet; a full read walks every packet the node occupies.
    const int last = decided ? first_packet_[cur] : full_last_[cur];
    for (int k = first_packet_[cur]; k <= last; ++k) {
      if (trace->packets.empty() || trace->packets.back() != k) {
        trace->packets.push_back(k);
        if (has_origins_) {
          trace->origins.push_back({origin_node_[cur], origin_depth_[cur]});
        }
      }
    }

    const uint32_t ref = go_left ? left_[cur] : right_[cur];
    if (ref & kDataPtrBit) {
      trace->region = static_cast<int>(ref & ~kDataPtrBit);
      return Status::OK();
    }
    cur = ref;
  }
  return Status::DataLoss("decode descent did not terminate");
}

size_t DTreeArena::ArenaBytes() const {
  return x_dim_.capacity() + shortcut_ok_.capacity() +
         sizeof(double) * (lmc_.capacity() + rmc_.capacity() +
                           near_b_.capacity() + far_b_.capacity() +
                           ax_.capacity() + ay_.capacity() +
                           bx_.capacity() + by_.capacity()) +
         sizeof(uint32_t) * (left_.capacity() + right_.capacity() +
                             seg_begin_.capacity()) +
         sizeof(int32_t) * (first_packet_.capacity() + full_last_.capacity() +
                            origin_node_.capacity() +
                            origin_depth_.capacity());
}

Result<bcast::ArenaIndex> BuildDTreeArenaIndex(const DTree& tree) {
  Result<bcast::PacketBuffer> flat = SerializeDTree(tree);
  if (!flat.ok()) return flat.status();

  DTreeArena::OriginMap origins;
  origins.reserve(static_cast<size_t>(tree.num_nodes()));
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const bcast::NodeSpan& s = tree.span(id);
    const uint32_t key = bcast::EncodeNodePointer(s.first_packet, s.offset);
    origins.emplace(key,
                    bcast::ProbePacketOrigin{id, tree.node(id).depth});
  }

  Result<DTreeArena> arena = DTreeArena::Build(
      flat.value(), tree.PacketCapacity(), /*framed=*/false,
      tree.options().early_termination, tree.num_regions(), &origins);
  if (!arena.ok()) return arena.status();
  return bcast::ArenaIndex(
      tree, std::make_unique<DTreeArena>(std::move(arena).value()));
}

}  // namespace dtree::core
