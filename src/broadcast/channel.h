// (1, m) broadcast-channel layout and client access-protocol simulation.
//
// The channel broadcasts, per cycle, m copies of the index segment
// interleaved with the data (Imielinski et al.'s (1, m) scheme, Figure 2 of
// the paper): [Index][Data 1/m][Index][Data 2/m]...[Index][Data m/m].
// Every packet carries a pointer to the start of the next index segment,
// which the client uses after its initial probe.
//
// Positions and latencies are measured in packets; query arrival times are
// continuous (a client may tune in mid-packet and must wait for the next
// packet start to synchronize — a packet whose transmission began exactly
// at the arrival instant is already in flight and cannot be read).
//
// ChannelOptions::loss selects an optional packet-loss model (loss.h);
// Simulate then plays the client's re-tune recovery protocol and reports
// retries and unrecoverable failures in the QueryOutcome. The protocol
// itself is written once, in broadcast/access.h; this class owns the
// layout it reads.

#ifndef DTREE_BROADCAST_CHANNEL_H_
#define DTREE_BROADCAST_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/loss.h"
#include "broadcast/params.h"
#include "common/status.h"

namespace dtree::bcast {

struct QueryTrace;  // broadcast/trace.h

/// Which rung of the degradation ladder a query gave up on (kNone while
/// the query succeeded). Always set when QueryOutcome::unrecoverable.
enum class GiveUpStage : uint8_t {
  kNone = 0,          ///< query completed
  kProbeBudget,       ///< every initial-probe read failed
  kRetryBudget,       ///< re-tune budget exhausted, fallback disabled
  kFallbackBudget,    ///< linear-scan fallback also exhausted its cycles
  kEpochChurn,        ///< version-skew rung: the broadcast switched epochs
                      ///< more times than the epoch-retry budget allows
};

/// Stable human-readable name for a GiveUpStage.
const char* GiveUpStageName(GiveUpStage stage);

struct ChannelOptions {
  int packet_capacity = 0;             ///< required, > 0
  size_t data_instance_size = kDataInstanceSize;
  /// Index repetitions per cycle; 0 selects the optimal
  /// m* = round(sqrt(data_packets / index_packets)) per Imielinski et al.
  int m = 0;
  /// Packet-loss model; kNone reproduces the paper's reliable medium.
  LossOptions loss;
};

/// Immutable per-cycle layout for one index structure.
class BroadcastChannel {
 public:
  /// Builds the layout for `num_regions` data buckets and an index segment
  /// of `index_packets` packets.
  static Result<BroadcastChannel> Create(int index_packets, int num_regions,
                                         const ChannelOptions& options);

  int m() const { return m_; }
  int packet_capacity() const { return packet_capacity_; }
  int index_packets() const { return index_packets_; }
  int64_t data_packets() const { return data_packets_; }
  int64_t cycle_packets() const { return cycle_packets_; }
  int bucket_packets() const { return bucket_packets_; }
  int num_regions() const { return num_regions_; }

  /// Expected access latency with no index at all — half a pure-data cycle
  /// (the paper's "optimal access latency" used for normalization).
  double OptimalLatency() const { return data_packets_ / 2.0; }

  /// Absolute position (within the cycle) of the first packet of index
  /// segment j, j in [0, m).
  int64_t IndexSegmentStart(int j) const;

  /// Absolute position of the first packet of data bucket r (a table
  /// lookup).
  int64_t BucketStart(int r) const;

  struct QueryOutcome {
    double latency = 0.0;        ///< packets, query issue -> data complete
                                 ///< (or -> giving up when unrecoverable)
    int tuning_probe = 0;        ///< initial-probe packets (1 on a clean
                                 ///< channel; +1 per lost probe)
    int tuning_index = 0;        ///< index-search packets, including
                                 ///< re-reads after a re-tune (the paper's
                                 ///< tuning-time measure)
    int tuning_data = 0;         ///< data-retrieval packets, including
                                 ///< partial buckets cut short by a loss
    int retries = 0;             ///< failed attempts that forced a re-tune
                                 ///< to a later index repetition
    int lost_packets = 0;        ///< reads that never arrived (erasures)
    int corrupted_packets = 0;   ///< delivered reads whose CRC check
                                 ///< failed (bit corruption)
    bool fallback_scan = false;  ///< the client exhausted its retries and
                                 ///< fell back to linearly scanning the
                                 ///< broadcast for its bucket
    bool unrecoverable = false;  ///< every ladder rung exhausted; latency
                                 ///< then measures time until giving up
    GiveUpStage give_up = GiveUpStage::kNone;  ///< which rung gave up
    /// Broadcast epoch the answer (or give-up) belongs to: the last epoch
    /// whose frames the client trusted. Single-version simulations leave
    /// it at the tune-in epoch (0 for an unversioned channel).
    uint16_t epoch = 0;
    /// Version-skew rung: observed-epoch changes that forced the client
    /// to abandon partial state and re-tune (broadcast/versioned.h).
    int epoch_switches = 0;
    /// Answered from the client's semantic region cache
    /// (broadcast/region_cache.h) without tuning in: every tuning field
    /// and the latency are zero. Never set by Simulate itself — the cache
    /// layer in the experiment / fleet drivers synthesizes hit outcomes.
    bool cache_hit = false;
    int tuning_total() const {
      return tuning_probe + tuning_index + tuning_data;
    }
  };

  /// Simulates the full access protocol (broadcast/access.h) for a client
  /// arriving at continuous time `arrival` in [0, cycle) whose index
  /// search produced `trace`: one query run to completion on a one-span
  /// timeline whose only span never ends.
  /// The precondition is validated: a non-finite arrival (NaN, ±inf) or one
  /// outside [0, cycle) returns InvalidArgument — callers replaying
  /// absolute fleet time must wrap with fmod(t, cycle_packets()) first.
  ///
  /// When ChannelOptions::loss is enabled, each packet read may be lost;
  /// when loss.corruption is enabled, each *delivered* read may carry bit
  /// errors, which the CRC-32 frame trailer detects (counted separately
  /// in corrupted_packets). Either failure drives the degradation ladder:
  /// retry the probe / re-tune to the next index repetition and restart
  /// the index search there, for at most loss.max_retries re-tunes; then,
  /// if loss.fallback_scan_cycles > 0, abandon the index and linearly
  /// scan the broadcast for the bucket for at most that many cycles;
  /// only then report unrecoverable (with the rung in give_up). The
  /// client therefore always terminates with an answer or an explicit
  /// failure. `loss_stream` keys the query's private fault sub-streams
  /// (pass the query's global index); the outcome is a pure function of
  /// (channel, trace, arrival, loss_stream).
  ///
  /// `trace_out` is the observability hook (broadcast/trace.h): when
  /// non-null, every probe / doze / index-read / bucket-read / loss /
  /// re-tune event is appended to it and the outcome summary fields are
  /// mirrored into it. The default is null — the hot path then pays one
  /// predicted branch per event site — and tracing is purely
  /// observational: the returned QueryOutcome is bit-identical with and
  /// without it.
  Result<QueryOutcome> Simulate(const ProbeTrace& trace, double arrival,
                                uint64_t loss_stream,
                                QueryTrace* trace_out = nullptr) const;

  /// Convenience overload: loss stream 0.
  Result<QueryOutcome> Simulate(const ProbeTrace& trace,
                                double arrival) const {
    return Simulate(trace, arrival, 0);
  }

  /// Baseline without any index: the client listens from arrival until its
  /// bucket has gone by, on a pure-data cycle of the same database.
  ///
  /// `arrival` must be finite and non-negative and `region` a bucket of
  /// this channel; otherwise InvalidArgument. The arrival is canonically
  /// wrapped mod the pure-data cycle, so callers may pass absolute time.
  ///
  /// When ChannelOptions::loss is enabled the baseline plays the same
  /// erasure / corruption processes as the indexed client — the client
  /// listens continuously, so only its own bucket packets are exposed to
  /// faults; a failed bucket forces another full pure-data cycle of
  /// listening (counted in retries), up to loss.max_retries extra passes,
  /// after which the query is unrecoverable (give_up = kRetryBudget).
  /// Each pass draws from its own sub-stream
  /// (LossProcess::NoIndexStream(pass), keyed by `loss_stream` like
  /// Simulate), disjoint from every indexed-path stream. With loss and
  /// corruption disabled the outcome is bit-identical to the pre-loss
  /// baseline and no RNG is constructed.
  Result<QueryOutcome> SimulateNoIndex(int region, double arrival,
                                       uint64_t loss_stream) const;

  /// Convenience overload: loss stream 0.
  Result<QueryOutcome> SimulateNoIndex(int region, double arrival) const {
    return SimulateNoIndex(region, arrival, 0);
  }

  const LossOptions& loss_options() const { return loss_; }

 private:
  BroadcastChannel() = default;

  int packet_capacity_ = 0;
  int m_ = 1;
  int index_packets_ = 0;
  int num_regions_ = 0;
  int bucket_packets_ = 0;
  int64_t data_packets_ = 0;
  int64_t cycle_packets_ = 0;
  /// Precomputed segment start positions (size m).
  std::vector<int64_t> segment_start_;
  /// Precomputed bucket start positions (size num_regions).
  std::vector<int64_t> bucket_start_;
  LossOptions loss_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_CHANNEL_H_
