#include "broadcast/experiment.h"

#include <algorithm>
#include <cmath>

#include "broadcast/access.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "geom/polygon.h"

namespace dtree::bcast {

namespace {

/// Fixed shard count for the parallel query loop. Chosen once, never
/// derived from thread count: shard s always covers the same query indices
/// and always draws from RNG stream s, so the merged result is identical
/// whether shards run on 1 thread or 16. Small enough that per-shard
/// bookkeeping is negligible, large enough to load-balance a pool of any
/// realistic size.
constexpr int kQueryShards = 64;

/// Per-shard private accumulator; merged in shard order. The registry is
/// written lock-free by the owning shard and merged with MergeOrdered, so
/// histogram statistics inherit the partial-sum determinism contract.
struct ShardSums {
  double latency = 0.0;
  double tuning_index = 0.0;
  double tuning_total = 0.0;
  double tuning_noindex = 0.0;
  int64_t retries = 0;
  int64_t lost_packets = 0;
  int64_t corrupted_packets = 0;
  int64_t unrecoverable = 0;
  int64_t fallback = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  MetricsRegistry metrics;
  /// Buffered per-query traces (trace_sink set only); replayed to the
  /// sink in shard order == global query order after the parallel run.
  std::vector<QueryTrace> traces;
  Status error = Status::OK();
};

}  // namespace

Result<QuerySampler> QuerySampler::Create(const sub::Subdivision& subdivision,
                                          QueryDistribution distribution,
                                          std::vector<double> weights) {
  std::vector<double> cumulative;
  if (distribution == QueryDistribution::kWeightedRegion) {
    if (weights.size() != static_cast<size_t>(subdivision.NumRegions())) {
      return Status::InvalidArgument(
          "kWeightedRegion needs one weight per region");
    }
    double total = 0.0;
    cumulative.reserve(weights.size());
    for (double w : weights) {
      if (w < 0.0 || !std::isfinite(w)) {
        return Status::InvalidArgument("negative or non-finite weight");
      }
      total += w;
      cumulative.push_back(total);
    }
    if (total <= 0.0) {
      return Status::InvalidArgument("weights sum to zero");
    }
  }
  std::vector<geom::Polygon> polygons;
  if (distribution != QueryDistribution::kUniformArea) {
    polygons.reserve(subdivision.NumRegions());
    for (int i = 0; i < subdivision.NumRegions(); ++i) {
      polygons.push_back(subdivision.RegionPolygon(i));
    }
  }
  return QuerySampler(subdivision, distribution, std::move(cumulative),
                      std::move(polygons));
}

geom::Point QuerySampler::DrawInRegion(int region, Rng* rng) const {
  const geom::BBox& b = sub_.RegionBounds(region);
  const geom::Polygon& poly = polygons_[region];
  for (int attempt = 0; attempt < 4096; ++attempt) {
    geom::Point p{rng->Uniform(b.min_x, b.max_x),
                  rng->Uniform(b.min_y, b.max_y)};
    if (poly.Contains(p)) return p;
  }
  // Pathologically thin region: fall back to its centroid.
  return poly.Centroid();
}

geom::Point QuerySampler::Draw(Rng* rng) const {
  const geom::BBox& area = sub_.service_area();
  switch (distribution_) {
    case QueryDistribution::kUniformArea:
      return {rng->Uniform(area.min_x, area.max_x),
              rng->Uniform(area.min_y, area.max_y)};
    case QueryDistribution::kUniformRegion: {
      if (sub_.NumRegions() == 0) {
        return {rng->Uniform(area.min_x, area.max_x),
                rng->Uniform(area.min_y, area.max_y)};
      }
      const int r =
          static_cast<int>(rng->UniformInt(0, sub_.NumRegions() - 1));
      return DrawInRegion(r, rng);
    }
    case QueryDistribution::kWeightedRegion: {
      const double u = rng->Uniform(0.0, cumulative_.back());
      const auto it =
          std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
      const int r = static_cast<int>(
          std::min<std::ptrdiff_t>(it - cumulative_.begin(),
                                   cumulative_.size() - 1));
      return DrawInRegion(r, rng);
    }
  }
  DTREE_CHECK(false);
  return {};
}

Result<ExperimentResult> RunExperiment(const AirIndex& index,
                                       const sub::Subdivision& subdivision,
                                       const sub::PointLocator* oracle,
                                       const ExperimentOptions& options) {
  if (options.num_queries < 0) {
    return Status::InvalidArgument("negative query count");
  }
  DTREE_RETURN_IF_ERROR(workload::ValidateMobilityOptions(options.mobility));
  DTREE_RETURN_IF_ERROR(ValidateCacheOptions(options.cache));
  ChannelOptions copt;
  copt.packet_capacity = options.packet_capacity;
  copt.data_instance_size = options.data_instance_size;
  copt.m = options.m;
  copt.loss = options.loss;
  Result<BroadcastChannel> channel_r = BroadcastChannel::Create(
      index.NumIndexPackets(), subdivision.NumRegions(), copt);
  if (!channel_r.ok()) return channel_r.status();
  const BroadcastChannel& ch = channel_r.value();

  Result<QuerySampler> sampler_r = QuerySampler::Create(
      subdivision, options.distribution, options.region_weights);
  if (!sampler_r.ok()) return sampler_r.status();
  const QuerySampler& sampler = sampler_r.value();

  // Shard layout: fixed count, queries split as evenly as possible, shard
  // s always owning the same contiguous slice regardless of threads. At
  // least one (possibly empty) shard so the zero-query degenerate run
  // still produces a fully-formed result.
  const int num_shards =
      std::max(1, std::min(kQueryShards, options.num_queries));
  const int per_shard = options.num_queries / num_shards;
  const int remainder = options.num_queries % num_shards;

  // Cached-cell geometry, materialized once and shared read-only: the
  // valid scope inserted into a shard's cache after each answered query.
  std::vector<geom::Polygon> region_polys;
  if (options.cache.enabled) {
    region_polys.reserve(static_cast<size_t>(subdivision.NumRegions()));
    for (int i = 0; i < subdivision.NumRegions(); ++i) {
      region_polys.push_back(subdivision.RegionPolygon(i));
    }
  }

  std::vector<ShardSums> shards(num_shards);
  auto run_shard = [&](int s) {
    ShardSums& sums = shards[s];
    const int shard_queries = per_shard + (s < remainder ? 1 : 0);
    // Global index of this shard's first query — shard-local arithmetic,
    // identical for every thread count. Keys each query's loss process.
    const int64_t shard_first =
        static_cast<int64_t>(s) * per_shard + std::min(s, remainder);
    Rng rng = Rng::ForStream(options.seed, static_cast<uint64_t>(s));
    Histogram* h_latency = sums.metrics.histogram(kLatencyHist);
    Histogram* h_tuning_index = sums.metrics.histogram(kTuningIndexHist);
    Histogram* h_tuning_total = sums.metrics.histogram(kTuningTotalHist);
    Histogram* h_retries = sums.metrics.histogram(kRetriesHist);
    Histogram* h_lost = sums.metrics.histogram(kLostPacketsHist);
    Histogram* h_corrupted = sums.metrics.histogram(kCorruptedPacketsHist);
    const bool tracing = options.trace_sink != nullptr;
    if (tracing) sums.traces.reserve(static_cast<size_t>(shard_queries));
    // Hoisted out of the query loop: ProbeInto refills the same trace, so
    // arena-backed indexes run the loop without per-query heap churn.
    ProbeTrace trace;
    // Moving-client mode: the shard is one mobile client whose walk draws
    // only from the dedicated mobility stream family, so the shared `rng`
    // sequence is untouched by enabling it. The region cache draws no RNG
    // at all.
    const bool mobility_on = options.mobility.enabled;
    const bool cache_on = options.cache.enabled;
    workload::MobilityState walk;
    Rng walk_rng = Rng::ForStream(
        options.seed,
        workload::kMobilityStreamBase + static_cast<uint64_t>(s));
    RegionCache cache(options.cache);
    for (int q = 0; q < shard_queries; ++q) {
      const geom::Point p =
          mobility_on ? workload::MobilityStep(options.mobility,
                                               subdivision.service_area(),
                                               &walk, &walk_rng)
                      : sampler.Draw(&rng);

      if (cache_on) {
        const RegionCache::Entry* hit = cache.Lookup(p);
        if (hit != nullptr) {
          ++sums.cache_hits;
          // The arrival is still drawn (same stream, same order as a
          // miss), so the forced cold replay below sees exactly the
          // channel state this query would have tuned into.
          const double arrival =
              rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
          if (options.cache.verify_hits) {
            const Status probe_st = index.ProbeInto(p, &trace);
            if (!probe_st.ok()) {
              sums.error = probe_st;
              return;
            }
            Result<BroadcastChannel::QueryOutcome> cold_r = ch.Simulate(
                trace, arrival, static_cast<uint64_t>(shard_first + q));
            if (!cold_r.ok()) {
              sums.error = cold_r.status();
              return;
            }
            const auto& cold = cold_r.value();
            if (trace.region != hit->region ||
                (!cold.unrecoverable && cold.epoch != hit->epoch)) {
              sums.error = Status::Internal(
                  "region cache hit diverges from cold tune-in: cached "
                  "region " + std::to_string(hit->region) + " epoch " +
                  std::to_string(hit->epoch) + " vs cold region " +
                  std::to_string(trace.region) + " epoch " +
                  std::to_string(cold.epoch));
              return;
            }
          }
          if (tracing) {
            sums.traces.emplace_back();
            QueryTrace* qt = &sums.traces.back();
            qt->query_index = static_cast<uint64_t>(shard_first + q);
            qt->x = p.x;
            qt->y = p.y;
            qt->region = hit->region;
            qt->arrival = arrival;
            TraceCacheHit(hit->epoch, qt);
          }
          // The hit IS the energy win: the client never tunes in, so the
          // query contributes zero latency and zero tuning to every
          // aggregate (and nothing to the indexless baseline either).
          h_latency->Add(0.0);
          h_tuning_index->Add(0.0);
          h_tuning_total->Add(0.0);
          h_retries->Add(0.0);
          h_lost->Add(0.0);
          h_corrupted->Add(0.0);
          continue;
        }
        ++sums.cache_misses;
      }

      const Status probe_st = index.ProbeInto(p, &trace);
      if (!probe_st.ok()) {
        sums.error = probe_st;
        return;
      }

      if (oracle != nullptr) {
        const int expect = oracle->Locate(p);
        if (expect != trace.region &&
            subdivision.DistanceToNearestBorder(p) > geom::kMergeEps * 100.0) {
          sums.error = Status::Internal(
              index.name() + " located region " +
              std::to_string(trace.region) + " but oracle says " +
              std::to_string(expect));
          return;
        }
      }

      const double arrival =
          rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
      QueryTrace* qt = nullptr;
      if (tracing) {
        sums.traces.emplace_back();
        qt = &sums.traces.back();
        qt->query_index = static_cast<uint64_t>(shard_first + q);
        qt->x = p.x;
        qt->y = p.y;
        qt->region = trace.region;
        qt->arrival = arrival;
      }
      Result<BroadcastChannel::QueryOutcome> out_r = ch.Simulate(
          trace, arrival, static_cast<uint64_t>(shard_first + q), qt);
      if (!out_r.ok()) {
        sums.error = out_r.status();
        return;
      }
      const auto& out = out_r.value();
      sums.latency += out.latency;
      sums.tuning_index += out.tuning_index;
      sums.tuning_total += out.tuning_total();
      sums.retries += out.retries;
      sums.lost_packets += out.lost_packets;
      sums.corrupted_packets += out.corrupted_packets;
      if (out.unrecoverable) ++sums.unrecoverable;
      if (out.fallback_scan) ++sums.fallback;
      h_latency->Add(out.latency);
      h_tuning_index->Add(out.tuning_index);
      h_tuning_total->Add(out.tuning_total());
      h_retries->Add(out.retries);
      h_lost->Add(out.lost_packets);
      h_corrupted->Add(out.corrupted_packets);

      if (cache_on && !out.unrecoverable && trace.region >= 0) {
        // A completed answer carries a trusted epoch stamp: flush on skew
        // first, then cache the answer's valid scope under that epoch.
        sums.cache_invalidations += cache.OnEpochObserved(out.epoch);
        sums.cache_evictions += cache.Insert(
            region_polys[static_cast<size_t>(trace.region)], trace.region,
            out.epoch);
      }

      // The indexless strawman plays the same fault processes as the
      // indexed client, keyed by the same global query index (its draws
      // come from the disjoint NoIndexStream family, so neither
      // simulation perturbs the other).
      Result<BroadcastChannel::QueryOutcome> base_r = ch.SimulateNoIndex(
          trace.region, arrival, static_cast<uint64_t>(shard_first + q));
      if (!base_r.ok()) {
        sums.error = base_r.status();
        return;
      }
      sums.tuning_noindex += base_r.value().tuning_total();
    }
  };

  ThreadPool pool(options.num_threads);
  pool.ParallelFor(num_shards, run_shard);

  // Merge in shard order: floating-point summation order is fixed, so the
  // result is bit-identical for every thread count. The first failing
  // shard (by id) wins, matching what a serial run would have reported.
  double sum_latency = 0.0;
  double sum_tuning_index = 0.0;
  double sum_tuning_total = 0.0;
  double sum_tuning_noindex = 0.0;
  int64_t sum_retries = 0;
  int64_t sum_lost = 0;
  int64_t sum_corrupted = 0;
  int64_t sum_unrecoverable = 0;
  int64_t sum_fallback = 0;
  int64_t sum_cache_hits = 0;
  int64_t sum_cache_misses = 0;
  int64_t sum_cache_evictions = 0;
  int64_t sum_cache_invalidations = 0;
  MetricsRegistry merged;
  for (const ShardSums& sums : shards) {
    if (!sums.error.ok()) return sums.error;
    sum_latency += sums.latency;
    sum_tuning_index += sums.tuning_index;
    sum_tuning_total += sums.tuning_total;
    sum_tuning_noindex += sums.tuning_noindex;
    sum_retries += sums.retries;
    sum_lost += sums.lost_packets;
    sum_corrupted += sums.corrupted_packets;
    sum_unrecoverable += sums.unrecoverable;
    sum_fallback += sums.fallback;
    sum_cache_hits += sums.cache_hits;
    sum_cache_misses += sums.cache_misses;
    sum_cache_evictions += sums.cache_evictions;
    sum_cache_invalidations += sums.cache_invalidations;
    merged.MergeOrdered(sums.metrics);
  }

  // Replay buffered traces into the sink. Shards own contiguous,
  // ascending query ranges, so iterating shards in order replays the
  // stream in global query order — the sink sees the exact same sequence
  // for any thread count.
  if (options.trace_sink != nullptr) {
    for (const ShardSums& sums : shards) {
      for (const QueryTrace& qt : sums.traces) {
        options.trace_sink->Consume(qt);
      }
    }
  }

  // num_queries == 0 is a legal degenerate run (an empty load is what a
  // fleet between arrivals looks like): every sum is zero, so every mean
  // below must be guarded against 0/0 — the pinned behavior is all-zero
  // means, not NaN. Min/max come from empty histograms, which report 0.
  const double n = static_cast<double>(options.num_queries);
  const auto mean = [&](double sum) { return n > 0.0 ? sum / n : 0.0; };
  ExperimentResult res;
  res.index_name = index.name();
  res.packet_capacity = options.packet_capacity;
  res.m = ch.m();
  res.index_packets = index.NumIndexPackets();
  res.index_bytes = index.IndexBytes();
  res.data_packets = ch.data_packets();
  res.cycle_packets = ch.cycle_packets();
  res.mean_latency = mean(sum_latency);
  res.optimal_latency = ch.OptimalLatency();
  res.normalized_latency = res.mean_latency / res.optimal_latency;
  res.mean_tuning_index = mean(sum_tuning_index);
  res.mean_tuning_total = mean(sum_tuning_total);
  res.mean_tuning_noindex = mean(sum_tuning_noindex);
  const double saved = res.mean_tuning_noindex - res.mean_tuning_total;
  const double overhead = res.mean_latency - res.optimal_latency;
  res.indexing_efficiency = overhead > 0.0 ? saved / overhead : 0.0;
  const double db_bytes =
      static_cast<double>(subdivision.NumRegions()) *
      static_cast<double>(options.data_instance_size);
  res.normalized_index_size = static_cast<double>(res.index_bytes) / db_bytes;
  res.total_retries = sum_retries;
  res.total_corrupted_packets = sum_corrupted;
  res.unrecoverable_queries = sum_unrecoverable;
  res.fallback_queries = sum_fallback;
  res.cache_hits = sum_cache_hits;
  res.cache_misses = sum_cache_misses;
  res.cache_evictions = sum_cache_evictions;
  res.cache_invalidations = sum_cache_invalidations;
  res.mean_retries = mean(static_cast<double>(sum_retries));
  res.mean_lost_packets = mean(static_cast<double>(sum_lost));
  res.mean_corrupted_packets = mean(static_cast<double>(sum_corrupted));
  res.min_latency = merged.histogram(kLatencyHist)->Min();
  res.max_latency = merged.histogram(kLatencyHist)->Max();
  res.min_tuning_total = merged.histogram(kTuningTotalHist)->Min();
  res.max_tuning_total = merged.histogram(kTuningTotalHist)->Max();
  res.metrics = std::move(merged);
  return res;
}

}  // namespace dtree::bcast
