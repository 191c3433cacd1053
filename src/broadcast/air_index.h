// The interface every air-index structure implements, plus the probe-trace
// type the broadcast-channel simulator consumes.
//
// An air index is a set of nodes allocated into fixed-capacity packets laid
// out in a fixed broadcast order (packet id == position within the index
// segment). Probing with a query point yields the data region id plus the
// ordered list of index packets the client had to listen to — the paper's
// tuning-time measure for the index search step. ProbeInto, which fills a
// caller-owned trace, is the one probe an index implements; Probe wraps
// it for callers that want a fresh trace.

#ifndef DTREE_BROADCAST_AIR_INDEX_H_
#define DTREE_BROADCAST_AIR_INDEX_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geom/point.h"

namespace dtree::bcast {

/// Hard budget on the packets a single probe trace may touch. A correct
/// search reads each level's packet once; even a DAG-shaped index revisits
/// a packet only a handful of times, so a trace materially longer than the
/// index itself indicates a defective descent. Enforced by ValidateTrace
/// (and hence by BroadcastChannel::Simulate) so a runaway trace can never
/// translate into an unbounded simulated doze.
inline constexpr int ProbePacketBudget(int num_index_packets) {
  return 4 * num_index_packets + 64;
}

/// Which tree node caused an index-packet read, and at what depth — the
/// annotation the observability layer uses to attribute tuning energy to
/// tree levels. -1 means unknown.
struct ProbePacketOrigin {
  int node = -1;
  int depth = -1;

  bool operator==(const ProbePacketOrigin&) const = default;
};

/// Result of one index search over the air.
struct ProbeTrace {
  /// Data region (== data instance) the query resolves to.
  int region = -1;
  /// Index packet ids accessed, in access order. Ids are positions within
  /// the index segment. Tree-shaped indexes only ever jump forward
  /// (non-decreasing); a DAG-shaped index (the trap-tree) may reference an
  /// earlier packet, in which case the client must wait for the next index
  /// repetition to read it — the channel simulator charges that wait.
  std::vector<int> packets;
  /// Optional probe-path annotation, parallel to `packets` (same size or
  /// empty). When a packet holds several nodes the read is attributed to
  /// the first node the descent decoded from it. Filled by indexes that
  /// can attribute reads (the D-tree); empty elsewhere. Purely
  /// observational: the channel simulation never depends on it.
  std::vector<ProbePacketOrigin> origins;

  bool operator==(const ProbeTrace&) const = default;
};

/// Abstract paged air index.
class AirIndex {
 public:
  virtual ~AirIndex() = default;

  virtual std::string name() const = 0;

  /// Number of packets in one index segment.
  virtual int NumIndexPackets() const = 0;

  /// Total occupied bytes across index packets (<= packets * capacity).
  virtual size_t IndexBytes() const = 0;

  /// Packet capacity this index was paged for.
  virtual int PacketCapacity() const = 0;

  /// Simulates the client's index search for query point p, filling
  /// `*trace` in place: implementations clear its region, packets and
  /// origins first and never shrink the vectors, so a caller probing many
  /// queries reuses one trace and the steady-state loop allocates
  /// nothing. `*trace` is unspecified on error.
  ///
  /// Concurrency contract: ProbeInto must be safe to call from multiple
  /// threads at once on the same (fully built) index, each thread with
  /// its own trace. Implementations may not mutate shared state — no
  /// lazy construction, no internal caches, no `mutable` members touched
  /// on the probe path (per-thread `thread_local` scratch is fine). The
  /// parallel experiment driver (bcast::RunExperiment) and the fleet
  /// engine shard their queries across a thread pool and rely on this.
  /// Every index in this repository satisfies it the same way: each
  /// family (D-tree, R*-tree, trap-tree, trian-tree) probes one flat
  /// layout, filled once by Build() or by the wire decode behind an
  /// ArenaIndex (broadcast/arena.h), and immutable afterwards; the
  /// R*-tree's depth-first stack is the only thread_local scratch.
  virtual Status ProbeInto(const geom::Point& p, ProbeTrace* trace) const = 0;

  /// Convenience for one-off probes: ProbeInto a new trace.
  Result<ProbeTrace> Probe(const geom::Point& p) const;
};

/// Validates a trace: region resolved, packet ids within range, and — when
/// `require_forward` — non-decreasing. Shared by tests and the channel
/// simulator.
Status ValidateTrace(const ProbeTrace& trace, int num_index_packets,
                     int num_regions, bool require_forward = true);

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_AIR_INDEX_H_
