// Event-driven fleet engine: millions of concurrent clients sharing one
// (1, m) broadcast cycle, simulated in a single process.
//
// The experiment driver (broadcast/experiment.h) replays independent
// queries through BroadcastChannel::Simulate one at a time — there is no
// notion of a population. RunFleet instead advances a single broadcast
// clock and a priority queue of client events. Each client runs its
// queries through the access protocol's state machine (broadcast/access.h)
// — doze -> probe -> index descent -> bucket read, plus the retry /
// re-tune / fallback / epoch-skew rungs — waking only for the packets it
// must hear, issues queries from its own Poisson arrival process, and may
// churn (leave, with a fresh client re-occupying the slot). Between issue
// and completion a query touches only its own client record, its trace
// and integer counters, so the engine runs it to its last wake-up when
// it is issued and queues only its completion, keyed by that wake-up's
// (time, slot). Joins and completions, where every order-dependent sum
// and draw happens, pop in the same order as if each wake-up were an
// event. Telemetry, when attached, reads a query's events from its trace
// once the query has run; it does not change the schedule.
//
// Simulate drives the same machine synchronously on one span. Every packet
// position of a query arriving at absolute time A is the position for
// arrival fmod(A, cycle) shifted by the same whole number of cycles, and
// both arithmetic forms are exact in double, so a fleet of one client
// issuing one query reproduces Simulate's QueryOutcome field-for-field:
// the two drivers agree by cycle-shift invariance (tests/fleet_test.cc).
//
// Determinism contract (same shape as RunExperiment's): clients are split
// into kFleetShards fixed shards owning contiguous slot ranges; every
// random draw comes from a StreamRng keyed by (options.seed, client id,
// purpose) via MixStream, never from shared state; each shard runs
// its own event loop single-threaded into a private QueryTally, and the
// tallies are merged in shard order by the same MergeShards as
// RunExperiment's (broadcast/experiment.h). FleetResult is therefore
// bit-identical for any num_threads. Client ids outlive churn: the g-th
// occupant of slot s has client_id = s + g * num_clients, so a session's
// draws depend only on (seed, slot, generation).

#ifndef DTREE_BROADCAST_FLEET_H_
#define DTREE_BROADCAST_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/trace.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "subdivision/subdivision.h"

namespace dtree::bcast {

class FleetTelemetry;  // broadcast/telemetry.h

/// Fixed shard count for the fleet event loops; like the experiment
/// driver's kQueryShards, chosen once and never derived from thread
/// count, so shard s always owns the same slots and the merged result is
/// independent of how shards are scheduled onto threads.
inline constexpr int kFleetShards = 64;

/// A fleet's load: the shared LoadOptions (broadcast/experiment.h) plus
/// how clients issue queries. Fleet traces carry QueryTrace::client_id and
/// use the client's own query counter as query_index; within a shard they
/// replay in completion order of the shard's event loop. With mobility,
/// query q's step draws from FleetMobilityStream(q) on the client's key
/// and the walk resets on churn. The region cache persists across a
/// client's queries within a generation, is flushed when the client
/// observes an epoch switch (RunFleetVersioned), and dies on churn.
struct FleetOptions : LoadOptions {
  /// Concurrent client slots, >= 1. Memory is O(num_clients); one
  /// process comfortably holds millions (the per-client footprint is a
  /// few hundred bytes — see DESIGN.md §13).
  int64_t num_clients = 1;
  /// Simulation horizon in broadcast cycles, > 0. Queries *issued* before
  /// the horizon run to completion past it and count fully; a client
  /// whose next arrival falls at or beyond the horizon retires.
  double sim_cycles = 4.0;
  /// Mean queries a client issues per broadcast cycle, > 0: thinking
  /// time between a query's arrival and the next is exponential with
  /// mean cycle_packets / queries_per_cycle (clamped so a client never
  /// issues its next query before the previous one finished).
  double queries_per_cycle = 1.0;
  /// Churn: probability in [0, 1] that a client leaves after completing
  /// a query. The slot is re-occupied by a fresh client (next
  /// generation, new RNG identity) after an exponential re-join delay of
  /// the same mean as the thinking time.
  double churn = 0.0;
  /// Opt-in windowed telemetry (not owned; broadcast/telemetry.h).
  /// RunFleet calls Reset(cycle_packets, num_shards) before the parallel
  /// section, each shard engine records into its private TelemetryShard,
  /// and MergeShards() runs after the shard-ordered merge — every
  /// exported byte is identical for any num_threads. A query's protocol
  /// events reach telemetry from its trace when the query has run: the
  /// trace_sink's trace when tracing, else one scratch trace per shard,
  /// reused from query to query. FleetResult and the traces are
  /// bit-identical with and without telemetry (the attached runs are
  /// golden-pinned; tests/protocol_golden_test.cc compares them).
  FleetTelemetry* telemetry = nullptr;
};

/// Aggregated results of one fleet run. The shared QueryStats count every
/// *completed* (or given-up) query; a run whose horizon is too short for
/// any query to finish reports zero queries and all-zero means, never NaN.
/// Channel-shape fields describe epoch 0's channel.
struct FleetResult : QueryStats {
  int64_t horizon_packets = 0;  ///< round(sim_cycles * cycle_packets)
  int64_t num_clients = 0;  ///< concurrent slots simulated
  int64_t sessions = 0;     ///< client sessions that joined (>= num_clients
                            ///< when churn replaces departures in time)
  int64_t departures = 0;   ///< sessions that left through churn
  /// Version-skew rung accounting (RunFleetVersioned; all zero for
  /// RunFleet): epoch switches observed across all queries, queries that
  /// gave up with GiveUpStage::kEpochChurn, and the per-query mean.
  int64_t total_epoch_switches = 0;
  int64_t epoch_churn_queries = 0;
  double mean_epoch_switches = 0.0;
  /// Echoes FleetOptions::cache.enabled, so exporters know whether zero
  /// cache counters mean "cache off" or "cache cold".
  bool cache_enabled = false;

  bool operator==(const FleetResult&) const = default;
};

/// RNG identity of one client session: MixStream(seed, client_id) with
/// client_id = slot + generation * num_clients. Every stream under this
/// key is a StreamRng (common/rng.h), one word with no set-up, so the
/// engine builds one per draw site. Exposed so tests can reproduce a
/// fleet client's draws independently of the engine, with
/// StreamRng::ForStream(key, sub-stream id).
inline uint64_t FleetClientKey(uint64_t seed, uint64_t client_id) {
  return Rng::MixStream(seed, client_id);
}

// Per-client sub-stream ids, all keyed off FleetClientKey; the stream
// table in common/rng.h lists them beside every other family.

/// The generation-0 join draw.
inline uint64_t FleetJoinStream() { return 0; }
/// Query point (rejection sampling, private ephemeral StreamRng).
inline uint64_t FleetPointStream(uint64_t query_index) {
  return 3 * query_index + 1;
}
/// Post-query schedule (thinking time, churn, re-join delay).
inline uint64_t FleetScheduleStream(uint64_t query_index) {
  return 3 * query_index + 2;
}
/// The loss_stream passed to the channel's fault processes (the value
/// Simulate would need to reproduce the query's ladder).
inline uint64_t FleetQueryLossStream(uint64_t client_key,
                                     uint64_t query_index) {
  return Rng::MixStream(client_key, 3 * query_index + 3);
}
/// Mobility walk stream for query q, used instead of FleetPointStream
/// when FleetOptions::mobility is enabled, so enabling mobility perturbs
/// no other draw.
inline uint64_t FleetMobilityStream(uint64_t query_index) {
  return workload::kMobilityStreamBase + query_index;
}

/// Runs the fleet. `index` must honor the AirIndex::ProbeInto concurrency
/// contract (shards probe from many threads at once); `subdivision` backs
/// the query sampler. Returns InvalidArgument on malformed options and
/// propagates any probe / trace-validation failure, first failing shard
/// wins — exactly like RunExperiment.
Result<FleetResult> RunFleet(const AirIndex& index,
                             const sub::Subdivision& subdivision,
                             const FleetOptions& options);

/// One epoch's stretch of a versioned fleet broadcast: the index and
/// subdivision the server published for that epoch (both borrowed, must
/// outlive the call) plus the span length in that epoch's own broadcast
/// cycles. Mirrors bcast::EpochSpan but at the fleet's level of
/// abstraction — the channel layout is derived from the index inside
/// RunFleetVersioned with the same ChannelOptions as RunFleet.
struct FleetEpoch {
  const AirIndex* index = nullptr;
  const sub::Subdivision* subdivision = nullptr;
  uint16_t epoch = 0;
  /// Whole cycles this epoch stays on the air; must be >= 1 for every
  /// epoch but the last, which broadcasts forever (value ignored).
  int64_t cycles = 1;
};

/// Runs the fleet over a timeline of broadcast epochs (the version-skew
/// rung of the degradation ladder — see broadcast/access.h for the
/// protocol and broadcast/versioned.h for the timeline). Clients that doze across an epoch boundary detect
/// the skew on their next delivered read, abandon partial state, re-probe
/// the new epoch's index, and re-tune; queries observing more than
/// LossOptions::max_epoch_switches give up with GiveUpStage::kEpochChurn
/// rather than risk answering from a stale layout. Determinism is the
/// same as RunFleet's: FleetResult, traces and telemetry are
/// bit-identical for any num_threads. With a single epoch the simulation
/// is exactly RunFleet's (every shared FleetResult field matches
/// bitwise); options.sim_cycles and FleetResult's channel-shape fields
/// are measured against epoch 0's cycle. All epochs must share
/// options.packet_capacity / data_instance_size (the frame wire format
/// cannot change mid-broadcast).
Result<FleetResult> RunFleetVersioned(const std::vector<FleetEpoch>& epochs,
                                      const FleetOptions& options);

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_FLEET_H_
