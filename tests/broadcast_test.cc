#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/pager.h"
#include "dtree/dtree.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

TEST(PagerTest, TopDownSharesParentPacket) {
  // Root (10B) + two children (10B each) all fit in one 64B packet.
  PagingInput input;
  input.sizes = {10, 10, 10};
  input.parent = {-1, 0, 0};
  input.is_leaf = {false, true, true};
  auto r = TopDownPage(input, 64, /*merge_leaf_packets=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_packets, 1);
  EXPECT_EQ(r.value().spans[0].offset, 0u);
  EXPECT_EQ(r.value().spans[1].offset, 10u);
  EXPECT_EQ(r.value().spans[2].offset, 20u);
  EXPECT_EQ(r.value().used_bytes, 30u);
}

TEST(PagerTest, OverflowOpensNewPacket) {
  PagingInput input;
  input.sizes = {30, 30, 30};
  input.parent = {-1, 0, 0};
  input.is_leaf = {false, true, true};
  auto r = TopDownPage(input, 64, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_packets, 2);
  EXPECT_EQ(r.value().spans[1].first_packet, 0);  // fits with root
  EXPECT_EQ(r.value().spans[2].first_packet, 1);  // overflows
}

TEST(PagerTest, LargeNodeSpansPackets) {
  PagingInput input;
  input.sizes = {150, 10};
  input.parent = {-1, 0};
  input.is_leaf = {false, true};
  auto r = TopDownPage(input, 64, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().spans[0].num_packets, 3);  // 64 + 64 + 22
  // Child shares the large node's last, partially-filled packet.
  EXPECT_EQ(r.value().spans[1].first_packet, 2);
  EXPECT_EQ(r.value().spans[1].offset, 22u);
  EXPECT_EQ(r.value().num_packets, 3);
}

TEST(PagerTest, LeafMergingRespectsForwardOrder) {
  // Level structure engineered so naive merging would move the last leaf
  // packet before its parent:
  //   node0 (60B root), node1 (60B leaf), node2 (60B internal),
  //   node3 (60B leaf child of node2)
  PagingInput input;
  input.sizes = {60, 20, 60, 20};
  input.parent = {-1, 0, 0, 2};
  input.is_leaf = {false, true, false, true};
  auto r = TopDownPage(input, 64, /*merge_leaf_packets=*/true);
  ASSERT_TRUE(r.ok());
  // node3's packet may only merge into a packet at/after node2's.
  EXPECT_GE(r.value().spans[3].first_packet,
            r.value().spans[2].last_packet());
}

TEST(PagerTest, LeafMergingSavesSpace) {
  // Many small leaves in their own packets after a big root.
  PagingInput input;
  input.sizes = {60, 10, 10, 10, 10};
  input.parent = {-1, 0, 0, 0, 0};
  input.is_leaf = {false, true, true, true, true};
  auto merged = TopDownPage(input, 64, true);
  auto plain = TopDownPage(input, 64, false);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_LE(merged.value().num_packets, plain.value().num_packets);
}

TEST(PagerTest, RejectsMalformedInput) {
  PagingInput input;
  input.sizes = {10, 10};
  input.parent = {1, -1};  // child precedes parent
  input.is_leaf = {true, false};
  EXPECT_FALSE(TopDownPage(input, 64, false).ok());
  input.parent = {-1, 0};
  input.sizes = {0, 10};  // zero-sized node
  EXPECT_FALSE(TopDownPage(input, 64, false).ok());
  input.sizes = {10, 10};
  EXPECT_FALSE(TopDownPage(input, 0, false).ok());
}

TEST(PagerTest, GreedyPacking) {
  auto r = GreedyPage({30, 30, 30, 100, 10}, 64);
  ASSERT_TRUE(r.ok());
  // [30+30][30][100 -> 64+36][10 with the 36]
  EXPECT_EQ(r.value().spans[0].first_packet, 0);
  EXPECT_EQ(r.value().spans[1].first_packet, 0);
  EXPECT_EQ(r.value().spans[2].first_packet, 1);
  EXPECT_EQ(r.value().spans[3].first_packet, 2);
  EXPECT_EQ(r.value().spans[3].num_packets, 2);
  EXPECT_EQ(r.value().spans[4].first_packet, 3);
  EXPECT_EQ(r.value().num_packets, 4);
}

TEST(ChannelTest, LayoutBasics) {
  ChannelOptions o;
  o.packet_capacity = 128;  // bucket = 8 packets
  o.m = 2;
  auto ch_r = BroadcastChannel::Create(/*index_packets=*/4,
                                       /*num_regions=*/10, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  EXPECT_EQ(ch.bucket_packets(), 8);
  EXPECT_EQ(ch.data_packets(), 80);
  EXPECT_EQ(ch.cycle_packets(), 88);
  EXPECT_EQ(ch.IndexSegmentStart(0), 0);
  // Segment 1 after 4 index packets + 5 buckets * 8.
  EXPECT_EQ(ch.IndexSegmentStart(1), 44);
  EXPECT_EQ(ch.BucketStart(0), 4);
  EXPECT_EQ(ch.BucketStart(5), 48);
  EXPECT_DOUBLE_EQ(ch.OptimalLatency(), 40.0);
}

TEST(ChannelTest, OptimalM) {
  ChannelOptions o;
  o.packet_capacity = 1024;  // bucket = 1 packet
  auto ch_r = BroadcastChannel::Create(/*index_packets=*/4,
                                       /*num_regions=*/100, o);
  ASSERT_TRUE(ch_r.ok());
  // m* = sqrt(100/4) = 5.
  EXPECT_EQ(ch_r.value().m(), 5);
}

TEST(ChannelTest, SimulateProtocol) {
  ChannelOptions o;
  o.packet_capacity = 1024;  // bucket = 1 packet
  o.m = 2;
  auto ch_r = BroadcastChannel::Create(2, 4, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  // Cycle: [I0 I1][B0 B1][I0 I1][B2 B3] -> 8 packets.
  ASSERT_EQ(ch.cycle_packets(), 8);
  ProbeTrace trace;
  trace.region = 2;
  trace.packets = {0, 1};
  // Arrive at t=0.5: probe packet 1 (finishes at 2), next index at 4,
  // reads 4 and 5, bucket 2 is at position 6, done at 7.
  auto out_r = ch.Simulate(trace, 0.5);
  ASSERT_TRUE(out_r.ok());
  EXPECT_DOUBLE_EQ(out_r.value().latency, 6.5);
  EXPECT_EQ(out_r.value().tuning_probe, 1);
  EXPECT_EQ(out_r.value().tuning_index, 2);
  EXPECT_EQ(out_r.value().tuning_data, 1);
}

TEST(ChannelTest, SimulateWrapsCycle) {
  ChannelOptions o;
  o.packet_capacity = 1024;
  o.m = 1;
  auto ch_r = BroadcastChannel::Create(2, 4, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  // Cycle: [I0 I1][B0 B1 B2 B3] -> 6 packets. Arrive near the end.
  ProbeTrace trace;
  trace.region = 0;
  trace.packets = {0};
  auto out_r = ch.Simulate(trace, 5.25);
  ASSERT_TRUE(out_r.ok());
  // Probe packet 6 (pos 0 of next cycle, finishes 7), index at 6..:
  // next index start >= 7 is position 12; read packet 12; bucket 0 at 14,
  // done 15. Latency = 15 - 5.25.
  EXPECT_DOUBLE_EQ(out_r.value().latency, 15.0 - 5.25);
}

TEST(ChannelTest, NoIndexBaseline) {
  ChannelOptions o;
  o.packet_capacity = 1024;
  o.m = 1;
  auto ch_r = BroadcastChannel::Create(0, 4, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  const auto out = ch.SimulateNoIndex(2, 0.0).value();
  // Pure data cycle [B0..B3]; bucket 2 at position 2, done at 3. B0 began
  // transmitting exactly at the arrival instant, so listening starts at
  // packet 1: only B1 is listened through before the bucket.
  EXPECT_DOUBLE_EQ(out.latency, 3.0);
  EXPECT_EQ(out.tuning_index, 1);
  EXPECT_EQ(out.tuning_data, 1);
}

TEST(ChannelTest, ProbeWaitsForNextPacketStart) {
  ChannelOptions o;
  o.packet_capacity = 1024;  // bucket = 1 packet
  o.m = 2;
  auto ch_r = BroadcastChannel::Create(2, 4, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  // Cycle: [I0 I1][B0 B1][I0 I1][B2 B3] -> 8 packets.
  ProbeTrace trace;
  trace.region = 2;
  trace.packets = {0, 1};

  // Arrival exactly on a packet boundary: packet 0 is already in flight,
  // so the probe is packet 1 (finishes at 2), index at 4..5, bucket 2 at
  // 6, done at 7.
  auto at0 = ch.Simulate(trace, 0.0);
  ASSERT_TRUE(at0.ok());
  EXPECT_DOUBLE_EQ(at0.value().latency, 7.0);
  EXPECT_EQ(at0.value().tuning_probe, 1);
  EXPECT_EQ(at0.value().tuning_index, 2);
  EXPECT_EQ(at0.value().tuning_data, 1);

  // Integer arrival mid-cycle: probe packet 3, second index copy at 4..5,
  // bucket 2 at 6, done at 7.
  auto at2 = ch.Simulate(trace, 2.0);
  ASSERT_TRUE(at2.ok());
  EXPECT_DOUBLE_EQ(at2.value().latency, 5.0);

  // Fractional arrival inside the last packet wraps into the next cycle:
  // probe packet 8, index at 12..13, bucket at 14, done at 15.
  auto frac = ch.Simulate(trace, 7.5);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(frac.value().latency, 7.5);

  // Arrival exactly at the last packet's start: that packet is in flight,
  // so the client probes packet 8 — same path as above, latency 8.0. The
  // old ceil(arrival) would have (impossibly) read packet 7 itself.
  auto last = ch.Simulate(trace, 7.0);
  ASSERT_TRUE(last.ok());
  EXPECT_DOUBLE_EQ(last.value().latency, 8.0);
}

TEST(ChannelTest, BackwardPointerEarlyInFirstCycle) {
  // A DAG-shaped index can point backward within the segment. Exercise the
  // backward re-tune path as early as possible in cycle 0 — the regime
  // where next_segment_start's base argument (p - packet_id) is smallest
  // and a sign bug would bite.
  ChannelOptions o;
  o.packet_capacity = 1024;  // bucket = 1 packet
  o.m = 2;
  auto ch_r = BroadcastChannel::Create(4, 4, o);
  ASSERT_TRUE(ch_r.ok());
  const BroadcastChannel& ch = ch_r.value();
  // Cycle: [I0..I3][B0 B1][I0..I3][B2 B3] -> 12 packets.
  ASSERT_EQ(ch.cycle_packets(), 12);
  ProbeTrace trace;
  trace.region = 1;
  trace.packets = {3, 1};  // backward jump 3 -> 1
  auto out = ch.Simulate(trace, 0.0);
  ASSERT_TRUE(out.ok());
  // Probe packet 1 (pos 2); segment at 6: read 6+3=9; packet 1 of that
  // segment already passed, so wait for the next repetition at 12 and
  // read 12+1=13; bucket 1 next occurs at 12+5=17, done 18.
  EXPECT_DOUBLE_EQ(out.value().latency, 18.0);
  EXPECT_EQ(out.value().tuning_index, 2);
  EXPECT_EQ(out.value().tuning_data, 1);
}

TEST(ChannelTest, RejectsBadInput) {
  ChannelOptions o;
  o.packet_capacity = 0;
  EXPECT_FALSE(BroadcastChannel::Create(1, 1, o).ok());
  o.packet_capacity = 64;
  EXPECT_FALSE(BroadcastChannel::Create(1, 0, o).ok());
  EXPECT_FALSE(BroadcastChannel::Create(-1, 5, o).ok());
}

TEST(TraceValidationTest, CatchesBackwardJumps) {
  ProbeTrace t;
  t.region = 0;
  t.packets = {3, 1};
  EXPECT_FALSE(ValidateTrace(t, 10, 5).ok());
  t.packets = {1, 3};
  EXPECT_OK(ValidateTrace(t, 10, 5));
  t.packets = {11};
  EXPECT_FALSE(ValidateTrace(t, 10, 5).ok());
  t.region = 7;
  t.packets = {};
  EXPECT_FALSE(ValidateTrace(t, 10, 5).ok());
}

TEST(ExperimentTest, DTreeEndToEnd) {
  const sub::Subdivision sub = test::RandomVoronoi(60, 23);
  core::DTree::Options topts;
  topts.packet_capacity = 256;
  auto tree_r = core::DTree::Build(sub, topts);
  ASSERT_TRUE(tree_r.ok());
  const sub::PointLocator oracle(sub);
  ExperimentOptions eopts;
  eopts.packet_capacity = 256;
  eopts.num_queries = 2000;
  auto res_r = RunExperiment(tree_r.value(), sub, &oracle, eopts);
  ASSERT_TRUE(res_r.ok()) << res_r.status().ToString();
  const ExperimentResult& res = res_r.value();
  EXPECT_GT(res.mean_latency, res.optimal_latency);
  EXPECT_GT(res.normalized_latency, 1.0);
  EXPECT_LT(res.normalized_latency, 3.0);
  EXPECT_GT(res.mean_tuning_index, 0.0);
  // The whole point of air indexing: tuning far below listening.
  EXPECT_LT(res.mean_tuning_total, res.mean_tuning_noindex / 5.0);
  EXPECT_GT(res.indexing_efficiency, 0.0);
}

TEST(ExperimentTest, QueryDistributionCoversRegions) {
  const sub::Subdivision sub = test::ClusteredVoronoi(40, 29);
  Rng rng(1);
  const sub::PointLocator oracle(sub);
  auto sampler_r =
      QuerySampler::Create(sub, QueryDistribution::kUniformRegion, {});
  ASSERT_TRUE(sampler_r.ok());
  std::set<int> hit;
  for (int i = 0; i < 2000; ++i) {
    const geom::Point p = sampler_r.value().Draw(&rng);
    EXPECT_TRUE(sub.service_area().Contains(p));
    hit.insert(oracle.Locate(p));
  }
  // Uniform-over-regions must reach essentially every region.
  EXPECT_GE(static_cast<int>(hit.size()), 38);
}

}  // namespace
}  // namespace dtree::bcast
