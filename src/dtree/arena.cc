#include "dtree/arena.h"

#include <memory>
#include <tuple>
#include <utility>

#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "dtree/wire.h"
#include "geom/predicates.h"

namespace dtree::core {

namespace {

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
  if (packets.num_packets() == 0) return a;  // single-region: empty index

  // Corrupted-but-CRC-valid bytes whose pointer graph has more nodes
  // than the cycle can hold fail the build.
  bcast::NodeDiscovery discovery(packets, packet_capacity, kNodePrefixBytes);
  DTREE_RETURN_IF_ERROR(discovery.Intern(0).status());  // the root, (0, 0)

  std::vector<double> sx, sy;  // polyline point scratch
  for (uint32_t key; discovery.Next(&key);) {
    const int packet = bcast::NodePointerPacket(key);
    const size_t offset = bcast::NodePointerOffset(key);

    bcast::PacketReader r(packets, packet_capacity, framed, packet, offset,
                          nullptr);
    WireNodePrefix n;
    DTREE_RETURN_IF_ERROR(ReadWireNodePrefix(&r, &n));

    Node node;
    node.x_dim = n.dim == PartitionDim::kXDim;
    node.stops_early = n.has_bounds && early_termination;
    node.first_chain = static_cast<uint32_t>(a.chains_.size());
    double min_c, max_c;
    DTREE_RETURN_IF_ERROR(ReadWirePolylines(
        &r, n.dim, n.total_coords, &sx, &sy, &min_c, &max_c,
        [&](const double* xs, const double* ys, size_t cnt, bool closed) {
          a.chains_.push_back({static_cast<uint32_t>(a.points_.size()),
                               static_cast<uint32_t>(cnt), closed});
          for (size_t i = 0; i < cnt; ++i) a.points_.push_back({xs[i], ys[i]});
        }));
    node.end_chain = static_cast<uint32_t>(a.chains_.size());
    std::tie(node.near_b, node.far_b) = WireShortcutBounds(n, min_c, max_c);

    // Packet span of a full node read, from the node's wire size: the
    // read-log gains exactly the packets [first, first + (offset + size
    // - 1) / capacity] because the decoder consumes the bytes in order.
    const size_t node_bytes = kNodePrefixBytes + (n.has_bounds ? 8 : 0) +
                              2 * (node.end_chain - node.first_chain) +
                              4 * static_cast<size_t>(n.total_coords);
    node.first_packet = packet;
    node.full_last =
        packet + static_cast<int>((offset + node_bytes - 1) /
                                  static_cast<size_t>(packet_capacity));

    if (origins != nullptr) {
      const auto it = origins->find(key);
      if (it != origins->end()) node.origin = it->second;
    }

    // Remap the child pointers: a data pointer to a real region passes
    // through verbatim; a node pointer is validated exactly as the
    // per-probe decoder validates it, then becomes an arena index
    // (discovering new nodes as we go).
    auto remap = [&](uint32_t ptr) -> Result<uint32_t> {
      if (!bcast::IsDataPointer(ptr)) return discovery.Intern(ptr);
      DTREE_RETURN_IF_ERROR(
          bcast::CheckRegion(bcast::DataPointerRegion(ptr), num_regions));
      return ptr;
    };
    Result<uint32_t> left = remap(n.left_ptr);
    if (!left.ok()) return left.status();
    Result<uint32_t> right = remap(n.right_ptr);
    if (!right.ok()) return right.status();
    node.left = left.value();
    node.right = right.value();
    a.nodes_.push_back(node);
  }
  // The decode learns the sizes as it goes; keep the arrays exact.
  a.nodes_.shrink_to_fit();
  a.chains_.shrink_to_fit();
  a.points_.shrink_to_fit();
  return a;
}

DTreeArena::DTreeArena(int num_regions, int num_nodes)
    : has_origins_(true),
      num_regions_(num_regions),
      budget_(num_nodes),  // a descent visits each node at most once
      nodes_(static_cast<size_t>(num_nodes)) {}

void DTreeArena::AddLevel(
    std::span<const int> ids,
    std::span<const std::vector<geom::Polyline>> chains) {
  size_t num_chains = 0;
  size_t num_points = 0;
  for (const std::vector<geom::Polyline>& node_chains : chains) {
    num_chains += node_chains.size();
    for (const geom::Polyline& pl : node_chains) num_points += pl.pts.size();
  }
  chains_.reserve(chains_.size() + num_chains);
  points_.reserve(points_.size() + num_points);
  for (size_t k = 0; k < ids.size(); ++k) {
    Node& node = nodes_[static_cast<size_t>(ids[k])];
    node.first_chain = static_cast<uint32_t>(chains_.size());
    for (const geom::Polyline& pl : chains[k]) {
      chains_.push_back({static_cast<uint32_t>(points_.size()),
                         static_cast<uint32_t>(pl.pts.size()), pl.closed});
      points_.insert(points_.end(), pl.pts.begin(), pl.pts.end());
    }
    node.end_chain = static_cast<uint32_t>(chains_.size());
  }
}

void DTreeArena::SetNodes(const DTree& tree) {
  const auto child = [](int node, int region) {
    return node >= 0 ? static_cast<uint32_t>(node)
                     : bcast::EncodeDataPointer(region);
  };
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const DTreeNode& n = tree.node(id);
    const bcast::NodeSpan& s = tree.span(id);
    Node& node = nodes_[static_cast<size_t>(id)];
    node.near_b = n.near_bound;
    node.far_b = n.far_bound;
    node.left = child(n.left_node, n.left_region);
    node.right = child(n.right_node, n.right_region);
    node.first_packet = s.first_packet;
    node.full_last = s.last_packet();
    node.origin = {id, n.depth};
    node.x_dim = n.dim == PartitionDim::kXDim;
    node.stops_early = n.explicit_bounds && tree.options().early_termination;
  }
}

Status DTreeArena::Descend(const geom::Point& p, bcast::ProbeTrace* trace,
                           int* region) const {
  if (nodes_.empty()) {
    if (num_regions_ != 1) return Status::FailedPrecondition("empty tree");
    *region = 0;
    return Status::OK();
  }
  // Algorithm 2's D2 test: the parity of p's ray crossings with a node's
  // chains, over consecutive points and a closed chain's closing segment.
  const auto odd_crossings = [&](const Node& n) {
    const auto crosses = [&](const geom::Point& a, const geom::Point& b) {
      return n.x_dim ? geom::RayDownCrossesSegment(p, a, b)
                     : geom::RayRightCrossesSegment(p, a, b);
    };
    int crossings = 0;
    for (uint32_t c = n.first_chain; c < n.end_chain; ++c) {
      const ChainRecord& chain = chains_[c];
      const geom::Point* pts = points_.data() + chain.first;
      for (uint32_t i = 1; i < chain.size; ++i) {
        crossings += crosses(pts[i - 1], pts[i]) ? 1 : 0;
      }
      if (chain.closed && chain.size > 1) {
        crossings += crosses(pts[chain.size - 1], pts[0]) ? 1 : 0;
      }
    }
    return crossings % 2 == 1;
  };
  uint32_t cur = 0;
  for (int hops = 0; hops < budget_; ++hops) {
    const Node& n = nodes_[cur];
    // D1 puts p in the first subspace (left of a kYDim division, above a
    // kXDim one) and D3 in the second; between the bounds D2 decides.
    const bool d1 = n.x_dim ? p.y >= n.near_b : p.x <= n.near_b;
    const bool d3 = !d1 && (n.x_dim ? p.y <= n.far_b : p.x >= n.far_b);
    const bool first = d1 || (!d3 && odd_crossings(n));

    if (trace != nullptr) {
      // A read decided by the bounds stops in the node's first packet
      // where the node carries them explicitly (§4.4).
      const int last =
          (d1 || d3) && n.stops_early ? n.first_packet : n.full_last;
      for (int k = n.first_packet; k <= last; ++k) {
        if (trace->packets.empty() || trace->packets.back() != k) {
          trace->packets.push_back(k);
          if (has_origins_) trace->origins.push_back(n.origin);
        }
      }
    }

    const uint32_t ref = first ? n.left : n.right;
    if (bcast::IsDataPointer(ref)) {
      *region = bcast::DataPointerRegion(ref);
      return Status::OK();
    }
    cur = ref;
  }
  return Status::DataLoss("decode descent did not terminate");
}

size_t DTreeArena::ArenaBytes() const {
  return sizeof(Node) * nodes_.capacity() +
         sizeof(ChainRecord) * chains_.capacity() +
         sizeof(geom::Point) * points_.capacity();
}

Result<bcast::ArenaIndex> BuildDTreeArenaIndex(const DTree& tree) {
  Result<bcast::PacketBuffer> flat = SerializeDTree(tree);
  if (!flat.ok()) return flat.status();

  DTreeArena::OriginMap origins;
  origins.reserve(static_cast<size_t>(tree.num_nodes()));
  for (int id = 0; id < tree.num_nodes(); ++id) {
    // SerializeDTree has encoded every span already.
    const bcast::NodeSpan& s = tree.span(id);
    origins.emplace(bcast::EncodeNodePointer(s.first_packet, s.offset).value(),
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
