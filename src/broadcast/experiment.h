// Experiment driver: runs a query load against an air index over a
// (1, m) broadcast channel and aggregates the paper's three metrics.
//
// The driver is parallel but deterministic: the query stream is split into
// a fixed number of shards (independent of thread count), each shard draws
// from its own RNG stream (Rng::ForStream(seed, shard)) and accumulates
// into a private QueryTally, and the tallies are merged in shard order.
// The same (seed, num_queries) therefore produces bit-identical
// ExperimentResults for any ExperimentOptions::num_threads.
//
// The load options, the tally, the merge and the shared result fields are
// also the fleet engine's (broadcast/fleet.h): both drivers account their
// queries through this one layer.

#ifndef DTREE_BROADCAST_EXPERIMENT_H_
#define DTREE_BROADCAST_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/region_cache.h"
#include "broadcast/trace.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "subdivision/subdivision.h"
#include "workload/mobility.h"

namespace dtree::bcast {

/// How query points are drawn.
enum class QueryDistribution {
  /// Uniform over data regions (each region equally likely, point uniform
  /// inside it) — the paper's "uniform access distribution over the data
  /// regions".
  kUniformRegion,
  /// Regions drawn with the probabilities in
  /// LoadOptions::region_weights (skewed-access experiments).
  kWeightedRegion,
};

/// The query load both drivers run: channel layout, query points, faults,
/// observation and the client-side extensions. ExperimentOptions and
/// FleetOptions (broadcast/fleet.h) add only how queries are issued.
struct LoadOptions {
  int packet_capacity = 0;  ///< required, > 0
  uint64_t seed = 42;
  QueryDistribution distribution = QueryDistribution::kUniformRegion;
  /// Per-region access weights for kWeightedRegion (any non-negative
  /// scale, one entry per region).
  std::vector<double> region_weights;
  size_t data_instance_size = kDataInstanceSize;
  int m = 0;  ///< index repetitions per cycle; 0 = optimal
  /// Threads to run query shards on; 0 = hardware concurrency. Results do
  /// not depend on this value — only wall-clock time does.
  int num_threads = 0;
  /// Channel fault injection; every query plays the access protocol's
  /// degradation ladder (broadcast/access.h). Each query's fault draws are
  /// keyed by its own identity, never by shard scheduling, so lossy
  /// results stay bit-identical across thread counts; with the model
  /// disabled (or loss rate 0) every QueryOutcome matches the lossless
  /// path bit-for-bit.
  LossOptions loss;
  /// Opt-in per-query tracing (not owned). Each shard buffers its traces
  /// privately and MergeShards replays them into the sink in shard
  /// order, so the sink sees one identical, single-threaded event stream
  /// for any num_threads. Tracing is observational only: it draws nothing
  /// from any RNG and changes no metric bit.
  TraceSink* trace_sink = nullptr;
  /// Opt-in moving clients: consecutive query points follow a mobility
  /// walk (workload/mobility.h) instead of i.i.d. sampler draws. The walk
  /// draws only from its dedicated stream family (based at
  /// workload::kMobilityStreamBase), so mobility-off runs are
  /// bit-identical to runs without it.
  workload::MobilityOptions mobility;
  /// Opt-in semantic region cache (broadcast/region_cache.h), consulted
  /// before tuning in; a hit costs zero latency and zero tuning. The cache
  /// draws no RNG, and with cache.enabled false the run is bit-identical
  /// to one without it.
  CacheOptions cache;

  /// The channel layout these options describe.
  ChannelOptions channel_options() const;
  /// The mobility and cache option checks both drivers run.
  Status Validate() const;
};

struct ExperimentOptions : LoadOptions {
  /// Queries to run. 0 is a legal degenerate load: the run returns the
  /// channel-layout fields with every sum, mean, min and max pinned to
  /// zero (never NaN). Negative is InvalidArgument. With mobility each
  /// query shard is one mobile client; with the cache each shard owns one.
  int num_queries = 100000;
};

/// Histogram names under which both drivers record per-query
/// distributions in QueryStats::metrics.
inline constexpr char kLatencyHist[] = "latency";
inline constexpr char kTuningIndexHist[] = "tuning_index";
inline constexpr char kTuningTotalHist[] = "tuning_total";
inline constexpr char kRetriesHist[] = "retries";
inline constexpr char kLostPacketsHist[] = "lost_packets";
inline constexpr char kCorruptedPacketsHist[] = "corrupted_packets";
/// Per-query epoch-switch distribution, recorded only by
/// RunFleetVersioned (RunFleet results stay bit-identical).
inline constexpr char kEpochSwitchesHist[] = "epoch_switches";
/// QueryTally::hists in order — the one place the per-query histograms
/// are named.
inline constexpr const char* kTallyHists[] = {
    kLatencyHist,     kTuningIndexHist,      kTuningTotalHist, kRetriesHist,
    kLostPacketsHist, kCorruptedPacketsHist, kEpochSwitchesHist};

/// Draws query points for a distribution; precomputes the cumulative
/// weight table once so skewed loads sample in O(log N), and materializes
/// every region polygon once, so neither the per-draw rejection loop nor
/// a region cache's insert ever copies vertices. Draw() is const and safe
/// to call concurrently with distinct generators; it is instantiated for
/// Rng and StreamRng (common/rng.h).
class QuerySampler {
 public:
  /// Fails when kWeightedRegion is requested with a missing or malformed
  /// weight vector.
  static Result<QuerySampler> Create(const sub::Subdivision& subdivision,
                                     QueryDistribution distribution,
                                     std::vector<double> weights);

  template <class Engine>
  geom::Point Draw(BasicRng<Engine>* rng) const;
  /// Region r's cell: the valid scope a region cache stores for an answer.
  const geom::Polygon& cell(int r) const {
    return polygons_[static_cast<size_t>(r)];
  }

 private:
  QuerySampler(const sub::Subdivision& subdivision,
               QueryDistribution distribution, std::vector<double> cumulative,
               std::vector<geom::Polygon> polygons)
      : sub_(subdivision), distribution_(distribution),
        cumulative_(std::move(cumulative)), polygons_(std::move(polygons)) {}

  template <class Engine>
  geom::Point DrawInRegion(int region, BasicRng<Engine>* rng) const;

  const sub::Subdivision& sub_;
  QueryDistribution distribution_;
  std::vector<double> cumulative_;       ///< kWeightedRegion only
  std::vector<geom::Polygon> polygons_;  ///< one per region
};

/// The per-query statistics both drivers report over their finished
/// queries. Every mean is per query and reads zero, never NaN, when no
/// query finished. Lossy-channel fields are zero when the fault model is
/// disabled (or never fires); unrecoverable queries stay in every mean
/// (their latency measures time until giving up). Cache fields are zero
/// with the cache off; hits count in every mean with zero latency and
/// zero tuning — that IS the saving.
struct QueryStats {
  std::string index_name;
  int packet_capacity = 0;
  int m = 0;
  int index_packets = 0;
  int64_t data_packets = 0;
  int64_t cycle_packets = 0;
  int64_t queries = 0;  ///< queries completed or explicitly given up

  double mean_latency = 0.0;            ///< packets
  double mean_tuning_index = 0.0;       ///< packets, index search (Fig. 12)
  double mean_tuning_total = 0.0;       ///< probe + index + data
  double mean_retries = 0.0;            ///< re-tunes per query
  double mean_lost_packets = 0.0;       ///< erased reads per query
  double mean_corrupted_packets = 0.0;  ///< CRC-rejected reads per query
  int64_t total_retries = 0;
  int64_t total_lost_packets = 0;
  int64_t total_corrupted_packets = 0;
  int64_t unrecoverable_queries = 0;
  /// Queries answered (or abandoned) through the fallback linear scan.
  int64_t fallback_queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;

  // Distribution statistics. The means above describe the average client;
  // a mobile client's energy budget is set by the tail, so the drivers
  // also record per-query histograms (see the k*Hist names) from which
  // p50/p95/p99 are derived. Min/max are exact; histogram percentiles are
  // bucket-approximate (<= ~9% relative error) and, being derived from
  // integer bucket counts merged in shard order, identical for any thread
  // count and any shard execution order.
  double min_latency = 0.0;       ///< packets, exact
  double max_latency = 0.0;
  double min_tuning_total = 0.0;  ///< packets, exact
  double max_tuning_total = 0.0;
  /// Per-query distributions: kLatencyHist, kTuningIndexHist,
  /// kTuningTotalHist, kRetriesHist, kLostPacketsHist,
  /// kCorruptedPacketsHist; versioned fleets add kEpochSwitchesHist.
  MetricsRegistry metrics;

  bool operator==(const QueryStats&) const = default;
};

/// One shard's private accumulator, the accumulate-and-merge half of both
/// drivers' determinism contract (DESIGN.md §18). A shard owns one tally,
/// writes it single-threaded as its queries finish, and MergeShards folds
/// the tallies in shard order after the parallel section: floating-point
/// summation order is then fixed, so every statistic is bit-identical for
/// any thread count, and the first failing shard (by id) wins, matching
/// what a serial run would report.
struct QueryTally {
  /// A `versioned` fleet's tally also records kEpochSwitchesHist.
  explicit QueryTally(bool versioned = false)
      : record_epoch_switches(versioned) {}

  /// Accounts one finished query: answered, given up, or a cache hit (an
  /// all-zero outcome).
  void Add(const BroadcastChannel::QueryOutcome& out) {
    latency += out.latency;
    tuning_index += out.tuning_index;
    tuning_total += out.tuning_total();
    retries += out.retries;
    lost_packets += out.lost_packets;
    corrupted_packets += out.corrupted_packets;
    epoch_switches += out.epoch_switches;
    unrecoverable += out.unrecoverable;
    fallback += out.fallback_scan;
    epoch_churn += out.give_up == GiveUpStage::kEpochChurn;
    ++queries;
    hists[0].Add(out.latency);
    hists[1].Add(out.tuning_index);
    hists[2].Add(out.tuning_total());
    hists[3].Add(out.retries);
    hists[4].Add(out.lost_packets);
    hists[5].Add(out.corrupted_packets);
    if (record_epoch_switches) hists[6].Add(out.epoch_switches);
  }
  /// sum / queries, or 0 when no query finished.
  double Mean(double sum) const {
    return queries > 0 ? sum / static_cast<double>(queries) : 0.0;
  }

  bool record_epoch_switches;
  double latency = 0.0;
  double tuning_index = 0.0;
  double tuning_total = 0.0;
  double tuning_noindex = 0.0;  ///< indexless baseline (RunExperiment)
  int64_t queries = 0;
  int64_t retries = 0;
  int64_t lost_packets = 0;
  int64_t corrupted_packets = 0;
  int64_t epoch_switches = 0;
  int64_t unrecoverable = 0;
  int64_t fallback = 0;
  int64_t epoch_churn = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  int64_t sessions = 0;    ///< fleet client sessions that joined
  int64_t departures = 0;  ///< fleet sessions that left through churn
  /// Per-query distributions, in kTallyHists order.
  std::array<Histogram, std::size(kTallyHists)> hists;
  /// Buffered per-query traces (trace_sink set only).
  std::vector<QueryTrace> traces;
  Status error = Status::OK();
};

/// The shard-ordered merge both drivers end with, over at least one
/// shard. The first failing shard's error wins; otherwise the tallies are
/// folded in shard order, their traces replayed into `sink` (may be null)
/// in shard order, and every QueryStats field filled from the total and
/// from `ch` (span 0's channel for a fleet). Returns the total for
/// driver-specific sums.
Result<QueryTally> MergeShards(const std::vector<QueryTally>& shards,
                               const BroadcastChannel& ch,
                               std::string index_name, TraceSink* sink,
                               QueryStats* stats);

/// Aggregated results of one (index, dataset, packet-capacity) cell. The
/// queries are the ExperimentOptions::num_queries independent tune-ins.
struct ExperimentResult : QueryStats {
  size_t index_bytes = 0;
  double optimal_latency = 0.0;      ///< data_packets / 2
  double normalized_latency = 0.0;   ///< mean / optimal (Fig. 10)
  double mean_tuning_noindex = 0.0;  ///< listening without an index
  /// (tuning saved) / (latency overhead) — Fig. 13.
  double indexing_efficiency = 0.0;
  /// Index size / database size (Fig. 11).
  double normalized_index_size = 0.0;

  bool operator==(const ExperimentResult&) const = default;
};

/// Runs the experiment. Every query is answered through the index's Probe
/// and simulated on the channel; results are validated against the
/// brute-force locator when `oracle` is non-null (mismatches fail the run,
/// except for points within geom::kMergeEps*100 of a region border where
/// the answer is numerically ambiguous).
///
/// Queries run on options.num_threads threads; `index` must honor the
/// AirIndex::ProbeInto concurrency contract (all four structures in this
/// repository do).
Result<ExperimentResult> RunExperiment(const AirIndex& index,
                                       const sub::Subdivision& subdivision,
                                       const sub::PointLocator* oracle,
                                       const ExperimentOptions& options);

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_EXPERIMENT_H_
