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
  polygons.reserve(subdivision.NumRegions());
  for (int i = 0; i < subdivision.NumRegions(); ++i) {
    polygons.push_back(subdivision.RegionPolygon(i));
  }
  return QuerySampler(subdivision, distribution, std::move(cumulative),
                      std::move(polygons));
}

template <class Engine>
geom::Point QuerySampler::DrawInRegion(int region,
                                       BasicRng<Engine>* rng) const {
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

template <class Engine>
geom::Point QuerySampler::Draw(BasicRng<Engine>* rng) const {
  const geom::BBox& area = sub_.service_area();
  switch (distribution_) {
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

template geom::Point QuerySampler::Draw(Rng* rng) const;
template geom::Point QuerySampler::Draw(StreamRng* rng) const;

ChannelOptions LoadOptions::channel_options() const {
  ChannelOptions copt;
  copt.packet_capacity = packet_capacity;
  copt.data_instance_size = data_instance_size;
  copt.m = m;
  copt.loss = loss;
  return copt;
}

Status LoadOptions::Validate() const {
  DTREE_RETURN_IF_ERROR(workload::ValidateMobilityOptions(mobility));
  return ValidateCacheOptions(cache);
}

Result<QueryTally> MergeShards(const std::vector<QueryTally>& shards,
                               const BroadcastChannel& ch,
                               std::string index_name, TraceSink* sink,
                               QueryStats* stats) {
  DTREE_CHECK(!shards.empty());
  for (const QueryTally& shard : shards) {
    if (!shard.error.ok()) return shard.error;
  }
  QueryTally t(shards.front().record_epoch_switches);
  for (const QueryTally& shard : shards) {
    t.latency += shard.latency;
    t.tuning_index += shard.tuning_index;
    t.tuning_total += shard.tuning_total;
    t.tuning_noindex += shard.tuning_noindex;
    t.queries += shard.queries;
    t.retries += shard.retries;
    t.lost_packets += shard.lost_packets;
    t.corrupted_packets += shard.corrupted_packets;
    t.epoch_switches += shard.epoch_switches;
    t.unrecoverable += shard.unrecoverable;
    t.fallback += shard.fallback;
    t.epoch_churn += shard.epoch_churn;
    t.cache_hits += shard.cache_hits;
    t.cache_misses += shard.cache_misses;
    t.cache_evictions += shard.cache_evictions;
    t.cache_invalidations += shard.cache_invalidations;
    t.sessions += shard.sessions;
    t.departures += shard.departures;
    for (size_t h = 0; h < t.hists.size(); ++h) {
      t.hists[h].Merge(shard.hists[h]);
    }
  }
  // Shards own contiguous, ascending query (or client slot) ranges, so
  // replaying them in shard order gives the sink one fixed sequence.
  if (sink != nullptr) {
    for (const QueryTally& shard : shards) {
      for (const QueryTrace& qt : shard.traces) sink->Consume(qt);
    }
  }

  QueryStats& s = *stats;
  s.index_name = std::move(index_name);
  s.packet_capacity = ch.packet_capacity();
  s.m = ch.m();
  s.index_packets = ch.index_packets();
  s.data_packets = ch.data_packets();
  s.cycle_packets = ch.cycle_packets();
  s.queries = t.queries;
  s.mean_latency = t.Mean(t.latency);
  s.mean_tuning_index = t.Mean(t.tuning_index);
  s.mean_tuning_total = t.Mean(t.tuning_total);
  s.mean_retries = t.Mean(static_cast<double>(t.retries));
  s.mean_lost_packets = t.Mean(static_cast<double>(t.lost_packets));
  s.mean_corrupted_packets = t.Mean(static_cast<double>(t.corrupted_packets));
  s.total_retries = t.retries;
  s.total_lost_packets = t.lost_packets;
  s.total_corrupted_packets = t.corrupted_packets;
  s.unrecoverable_queries = t.unrecoverable;
  s.fallback_queries = t.fallback;
  s.cache_hits = t.cache_hits;
  s.cache_misses = t.cache_misses;
  s.cache_evictions = t.cache_evictions;
  s.cache_invalidations = t.cache_invalidations;
  s.min_latency = t.hists[0].Min();  // kLatencyHist
  s.max_latency = t.hists[0].Max();
  s.min_tuning_total = t.hists[2].Min();  // kTuningTotalHist
  s.max_tuning_total = t.hists[2].Max();
  // kEpochSwitchesHist, the last, is exported only where it is recorded.
  const size_t named = t.hists.size() - (t.record_epoch_switches ? 0 : 1);
  for (size_t h = 0; h < named; ++h) {
    *s.metrics.histogram(kTallyHists[h]) = t.hists[h];
  }
  return t;
}

Result<ExperimentResult> RunExperiment(const AirIndex& index,
                                       const sub::Subdivision& subdivision,
                                       const sub::PointLocator* oracle,
                                       const ExperimentOptions& options) {
  if (options.num_queries < 0) {
    return Status::InvalidArgument("negative query count");
  }
  DTREE_RETURN_IF_ERROR(options.Validate());
  Result<BroadcastChannel> channel_r = BroadcastChannel::Create(
      index.NumIndexPackets(), subdivision.NumRegions(),
      options.channel_options());
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

  std::vector<QueryTally> shards(static_cast<size_t>(num_shards));
  auto run_shard = [&](int s) {
    QueryTally& sums = shards[static_cast<size_t>(s)];
    const int shard_queries = per_shard + (s < remainder ? 1 : 0);
    // Global index of this shard's first query — shard-local arithmetic,
    // identical for every thread count. Keys each query's loss process.
    const int64_t shard_first =
        static_cast<int64_t>(s) * per_shard + std::min(s, remainder);
    Rng rng = Rng::ForStream(options.seed, static_cast<uint64_t>(s));
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
          sums.Add(BroadcastChannel::QueryOutcome{});
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
      sums.Add(out);

      if (cache_on && !out.unrecoverable && trace.region >= 0) {
        // A completed answer carries a trusted epoch stamp: flush on skew
        // first, then cache the answer's valid scope under that epoch.
        sums.cache_invalidations += cache.OnEpochObserved(out.epoch);
        sums.cache_evictions +=
            cache.Insert(sampler.cell(trace.region), trace.region, out.epoch);
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

  ExperimentResult res;
  Result<QueryTally> total_r =
      MergeShards(shards, ch, index.name(), options.trace_sink, &res);
  if (!total_r.ok()) return total_r.status();
  const QueryTally& total = total_r.value();
  res.index_bytes = index.IndexBytes();
  res.optimal_latency = ch.OptimalLatency();
  res.normalized_latency = res.mean_latency / res.optimal_latency;
  res.mean_tuning_noindex = total.Mean(total.tuning_noindex);
  const double saved = res.mean_tuning_noindex - res.mean_tuning_total;
  const double overhead = res.mean_latency - res.optimal_latency;
  res.indexing_efficiency = overhead > 0.0 ? saved / overhead : 0.0;
  const double db_bytes =
      static_cast<double>(subdivision.NumRegions()) *
      static_cast<double>(options.data_instance_size);
  res.normalized_index_size = static_cast<double>(res.index_bytes) / db_bytes;
  return res;
}

}  // namespace dtree::bcast
