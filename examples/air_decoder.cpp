// air_decoder: shows the D-tree wire format end to end. The server side
// serializes the paged tree into fixed-size packets; the client side then
// answers a query purely from those bytes (dtree::core::QueryFromPackets)
// — exactly what a mobile device does with the frames it receives — and
// we verify it matches the in-memory tree.
//
//   $ ./air_decoder

#include <cstdio>

#include "common/rng.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "subdivision/voronoi.h"
#include "workload/datasets.h"

int main() {
  using namespace dtree;
  Rng rng(4711);
  const geom::BBox area = workload::DefaultServiceArea();
  auto sites = workload::UniformPoints(48, area, &rng);
  auto sub_r = sub::BuildVoronoiSubdivision(sites, area);
  if (!sub_r.ok()) {
    std::fprintf(stderr, "%s\n", sub_r.status().ToString().c_str());
    return 1;
  }

  core::DTree::Options opt;
  opt.packet_capacity = 64;
  auto tree_r = core::DTree::Build(sub_r.value(), opt);
  if (!tree_r.ok()) {
    std::fprintf(stderr, "%s\n", tree_r.status().ToString().c_str());
    return 1;
  }
  const core::DTree& tree = tree_r.value();

  auto packets_r = core::SerializeDTree(tree);
  if (!packets_r.ok()) {
    std::fprintf(stderr, "%s\n", packets_r.status().ToString().c_str());
    return 1;
  }
  const auto& packets = packets_r.value();
  std::printf("serialized %d nodes into %zu packets of %d bytes "
              "(%zu payload bytes)\n",
              tree.num_nodes(), packets.num_packets(), opt.packet_capacity,
              tree.IndexBytes());

  // Hex dump of the first packet (bid, header, pointers, partition...).
  std::printf("\npacket 0:");
  for (size_t i = 0; i < packets.packet_bytes(); ++i) {
    if (i % 16 == 0) std::printf("\n  %04zx ", i);
    std::printf("%02x ", packets.packet(0)[i]);
  }
  std::printf("\n\n");

  int checked = 0, agreed = 0;
  for (int q = 0; q < 10000; ++q) {
    const geom::Point p{rng.Uniform(area.min_x, area.max_x),
                        rng.Uniform(area.min_y, area.max_y)};
    std::vector<int> read;
    auto region_r = core::QueryFromPackets(packets, opt.packet_capacity,
                                           /*framed=*/false,
                                           /*early_termination=*/true, p,
                                           &read);
    if (!region_r.ok()) {
      std::fprintf(stderr, "decode: %s\n",
                   region_r.status().ToString().c_str());
      return 1;
    }
    ++checked;
    if (region_r.value() == tree.Locate(p)) ++agreed;
  }
  std::printf("decoded %d random queries from raw packets; %d agree with "
              "the in-memory tree (%.2f%%; disagreements sit on region "
              "borders within float32 rounding)\n",
              checked, agreed, 100.0 * agreed / checked);
  return 0;
}
