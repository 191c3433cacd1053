#include "broadcast/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "broadcast/access.h"
#include "broadcast/telemetry.h"
#include "broadcast/versioned.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace dtree::bcast {

namespace {

/// What a client slot waits for between heap events.
enum class Stage : uint8_t {
  kJoin,  ///< session start; issue the first query
  /// The issued query is over; the event completes it. A query answered
  /// from the client's region cache is queued at its arrival and
  /// completes there (zero latency, zero tuning). Any other ran through
  /// the access protocol to kDone at issue, is queued under its last
  /// wake-up and completes at the position Finish left in `pos`.
  /// Completion goes through the queue, not recursion, so an unbroken
  /// run of hits cannot grow the stack.
  kComplete,
  kRetired,  ///< horizon reached; never scheduled again
};

/// One client slot: the in-flight query's protocol state plus the
/// client's identity and arrival process. Kept small on purpose: a
/// million clients is a few hundred MB. No generator is resident: every
/// draw comes from a StreamRng (one word, no set-up) that the engine or
/// the access protocol rebuilds from its (seed, client, purpose) stream
/// key when needed.
struct Client : QueryState {
  uint64_t key = 0;  ///< FleetClientKey(seed, client_id)
  double px = 0.0;   ///< in-flight query point (re-probed when the query
  double py = 0.0;   ///< adopts another span)
  /// The query point's index search under the current span; origins are
  /// kept only when tracing.
  ProbeTrace probe;
  /// Mobility walk state (FleetOptions::mobility); reset on churn.
  workload::MobilityState walk;
  /// Region cache (FleetOptions::cache); allocated lazily on the first
  /// issued query when enabled, Clear()ed on churn so the next occupant
  /// starts cold.
  std::unique_ptr<RegionCache> cache;
  uint32_t query_index = 0;  ///< this session's query counter
  uint32_t generation = 0;   ///< churn generation occupying this slot
  Stage stage = Stage::kJoin;
};
// A million of these stay resident; the record must not grow.
static_assert(sizeof(Client) <= 264, "fleet client record grew");

/// What the engine needs about one epoch span beyond its layout (which
/// the timeline owns), shared read-only across shards.
struct SpanContext {
  const AirIndex* index = nullptr;
  /// Draws query points; also holds the region cells a client caches.
  const QuerySampler* sampler = nullptr;
  geom::BBox area;  ///< service area (mobility walk bounds)
};

/// Heap event (a join or a completion); min-heap by (time, slot). The
/// slot tie-break pins the pop order when many clients wake at the same
/// packet start, so shard sums accumulate in one fixed order regardless
/// of anything external.
struct WakeUp {
  double t = 0.0;
  int32_t slot = 0;  ///< shard-local client index
};
struct WakeUpLater {
  bool operator()(const WakeUp& a, const WakeUp& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.slot > b.slot;
  }
};

/// One shard's event loop: it drives its clients' queries through the
/// access protocol, ordering joins and completions on a heap. Shards
/// never share mutable state; the channels, indexes and samplers are
/// probed concurrently under AirIndex's const-probe contract.
class ShardEngine final : public AccessDriver {
 public:
  ShardEngine(const std::vector<SpanContext>& spans, TimelineView air,
              bool versioned, const FleetOptions& options, double horizon,
              int64_t shard_first, int64_t shard_clients, QueryTally* sums,
              TelemetryShard* tel)
      : spans_(spans),
        air_(air),
        protocol_(air, this),
        opt_(options),
        horizon_(horizon),
        shard_first_(shard_first),
        shard_clients_(shard_clients),
        sums_(sums),
        tel_(tel),
        cycle_(air.channel(0).cycle_packets()),
        versioned_(versioned),
        mobility_on_(options.mobility.enabled),
        cache_on_(options.cache.enabled),
        mean_think_(static_cast<double>(cycle_) / options.queries_per_cycle),
        tracing_(options.trace_sink != nullptr) {}

  void Run() {
    clients_.resize(static_cast<size_t>(shard_clients_));
    if (tracing_) open_traces_.resize(static_cast<size_t>(shard_clients_));
    for (int32_t i = 0; i < shard_clients_; ++i) {
      Client& c = clients_[static_cast<size_t>(i)];
      c.key = FleetClientKey(opt_.seed, ClientId(i, /*generation=*/0));
      // Generation 0 joins at a uniform point of the first cycle — the
      // steady-state phase distribution of a population that has been
      // listening forever.
      StreamRng rng = StreamRng::ForStream(c.key, FleetJoinStream());
      const double t_join =
          rng.Uniform(0.0, static_cast<double>(cycle_));
      if (t_join >= horizon_) {
        c.stage = Stage::kRetired;
        continue;
      }
      queue_.push({t_join, i});
    }
    while (!queue_.empty() && sums_->error.ok()) {
      const WakeUp w = queue_.top();
      queue_.pop();
      Client& c = clients_[static_cast<size_t>(w.slot)];
      switch (c.stage) {
        case Stage::kJoin:
          ++sums_->sessions;
          if (tel_ != nullptr) tel_->SessionJoin(w.t);
          IssueQuery(w.slot, c, w.t);
          break;
        case Stage::kComplete:
          CompleteQuery(w.slot, c,
                        c.out.cache_hit ? c.arrival
                                        : static_cast<double>(c.pos));
          break;
        case Stage::kRetired:
          DTREE_CHECK(false);  // retired clients are never scheduled
          break;
      }
    }
  }

  /// The access protocol adopts `span` for the in-flight query: re-run
  /// its point through that span's index. Pure (no RNG draw), so it
  /// preserves the determinism contract. Null on a probe or validation
  /// failure (sums_->error set; the event loop stops).
  const ProbeTrace* TraceFor(QueryState& q, int span) override {
    Client& c = static_cast<Client&>(q);
    const BroadcastChannel& ch = air_.channel(span);
    Status st = spans_[static_cast<size_t>(span)].index->ProbeInto(
        {c.px, c.py}, &probe_scratch_);
    if (st.ok()) {
      st = ValidateTrace(probe_scratch_, std::max(ch.index_packets(), 1),
                         ch.num_regions(), /*require_forward=*/false);
    }
    if (!st.ok()) {
      sums_->error = st;
      return nullptr;
    }
    c.probe.region = probe_scratch_.region;
    c.probe.packets.assign(probe_scratch_.packets.begin(),
                           probe_scratch_.packets.end());
    if (c.qt != nullptr) {
      c.qt->region = c.probe.region;
      c.probe.origins = probe_scratch_.origins;
    } else {
      c.probe.origins.clear();
    }
    return &c.probe;
  }

  /// The delivered frame is a trusted stamp of the new epoch: version
  /// skew flushes the cache mid-query (loss and corruption never get here
  /// — a failed read carries no epoch evidence).
  void OnEpochChange(QueryState& q, int64_t at) override {
    Client& c = static_cast<Client&>(q);
    if (c.cache == nullptr) return;
    const int inv = c.cache->OnEpochObserved(c.out.epoch);
    sums_->cache_invalidations += inv;
    if (tel_ != nullptr) {
      tel_->CacheInvalidated(static_cast<double>(at), inv);
    }
  }

 private:
  uint64_t ClientId(int32_t slot, uint32_t generation) const {
    return static_cast<uint64_t>(shard_first_ + slot) +
           static_cast<uint64_t>(generation) *
               static_cast<uint64_t>(opt_.num_clients);
  }

  /// Starts the trace of client c's query: the slot's own when tracing,
  /// otherwise (telemetry only) the shard's scratch trace, which keeps its
  /// event buffer from query to query. The protocol appends the events
  /// and TraceFor the region.
  void OpenTrace(int32_t slot, Client& c) {
    QueryTrace& qt =
        tracing_ ? open_traces_[static_cast<size_t>(slot)] : scratch_trace_;
    std::vector<TraceEvent> events = std::move(qt.events);
    events.clear();
    qt = QueryTrace{};
    qt.events = std::move(events);
    qt.query_index = c.query_index;
    qt.client_id = static_cast<int64_t>(ClientId(slot, c.generation));
    qt.x = c.px;
    qt.y = c.py;
    qt.arrival = c.arrival;
    c.qt = &qt;
  }

  /// Issues the next query of client c arriving at absolute time A, or
  /// retires the client when A falls past the horizon. Draws the query
  /// point from the span on the air at the first probe position, consults
  /// the region cache, and on a miss starts the access protocol.
  void IssueQuery(int32_t slot, Client& c, double arrival) {
    if (arrival >= horizon_) {
      c.stage = Stage::kRetired;
      return;
    }
    const int issue_span = air_.SpanAt(FirstHeardPacket(arrival));
    const SpanContext& sc = spans_[static_cast<size_t>(issue_span)];
    geom::Point p;
    if (mobility_on_) {
      // The walk owns its stream family; the point stream stays untouched
      // so mobility-off sessions draw exactly what they always did.
      StreamRng rng =
          StreamRng::ForStream(c.key, FleetMobilityStream(c.query_index));
      p = workload::MobilityStep(opt_.mobility, sc.area, &c.walk, &rng);
    } else {
      StreamRng rng =
          StreamRng::ForStream(c.key, FleetPointStream(c.query_index));
      p = sc.sampler->Draw(&rng);
    }
    c.arrival = arrival;
    c.px = p.x;
    c.py = p.y;

    if (cache_on_) {
      if (c.cache == nullptr) {
        c.cache = std::make_unique<RegionCache>(opt_.cache);
      }
      const RegionCache::Entry* hit = c.cache->Lookup(p);
      if (tel_ != nullptr) tel_->CacheLookup(arrival, hit != nullptr);
      if (hit != nullptr) {
        ++sums_->cache_hits;
        if (opt_.cache.verify_hits && !VerifyHit(c, *hit, issue_span)) {
          return;
        }
        c.out = BroadcastChannel::QueryOutcome{};
        c.out.cache_hit = true;
        c.out.epoch = hit->epoch;
        if (tel_ != nullptr) tel_->QueryIssued(arrival);
        if (tracing_) {
          OpenTrace(slot, c);
          c.qt->region = hit->region;
          TraceCacheHit(hit->epoch, c.qt);
          MirrorOutcome(c.out, versioned_, c.qt);
        }
        c.stage = Stage::kComplete;
        queue_.push({arrival, slot});
        return;
      }
      ++sums_->cache_misses;
    }

    c.loss_stream = FleetQueryLossStream(c.key, c.query_index);
    c.phase = AccessPhase::kStart;
    if (tel_ != nullptr) tel_->QueryIssued(arrival);
    if (tracing_ || tel_ != nullptr) OpenTrace(slot, c);
    Advance(slot, c, arrival);
  }

  /// Differential guard (CacheOptions::verify_hits): a hit's answer must
  /// equal a cold probe of the index it was cached from — the latest span
  /// up to the one on the air that carries the entry's epoch. A client
  /// that has not yet heard an epoch switch rightly answers from the older
  /// epoch, whose region ids differ. (Latency and tuning legitimately
  /// differ — zeroing them is the point.)
  bool VerifyHit(const Client& c, const RegionCache::Entry& hit,
                 int issue_span) {
    int s = issue_span;
    while (s > 0 && air_.span(s).epoch != hit.epoch) --s;
    const Status st = spans_[static_cast<size_t>(s)].index->ProbeInto(
        {c.px, c.py}, &probe_scratch_);
    if (!st.ok()) {
      sums_->error = st;
      return false;
    }
    if (probe_scratch_.region != hit.region) {
      sums_->error = Status::Internal(
          "fleet region cache hit diverges from cold probe: cached "
          "region " + std::to_string(hit.region) + " vs probed " +
          std::to_string(probe_scratch_.region));
      return false;
    }
    return true;
  }

  /// Runs client c's query, issued at t, to its last wake-up, waking it
  /// at each time the protocol returns. Until it completes the query
  /// touches only its own record, its trace, the integer
  /// cache_invalidations and the probe scratch, so running it ahead of
  /// other clients' events moves no result bit. Telemetry then counts
  /// its events from its trace, and the query is queued under its last
  /// wake-up's (time, slot): CompleteQuery, which holds everything whose
  /// result depends on order, runs at the point of the event order where
  /// an engine that woke each query through the heap would run it. An
  /// aborted query left its error in sums_.
  void Advance(int32_t slot, Client& c, double t) {
    double next = protocol_.Wake(c, t);
    while (!c.finished()) {
      t = next;
      next = protocol_.Wake(c, t);
    }
    if (c.phase == AccessPhase::kDone) {
      if (c.qt != nullptr) {
        MirrorOutcome(c.out, versioned_, c.qt);
        if (tel_ != nullptr) {
          tel_->QueryEvents(*c.qt, static_cast<double>(c.pos),
                            GiveUpStageName(c.out.give_up));
        }
      }
      c.stage = Stage::kComplete;
      queue_.push({t, slot});
    }
    if (!tracing_) c.qt = nullptr;  // the scratch trace is for the next query
  }

  /// The query is over (answered or explicitly given up) at absolute time
  /// `done`: account it, then advance the client's arrival process —
  /// possibly through churn, which retires this session and seats the
  /// next generation in the slot after a re-join delay.
  void CompleteQuery(int32_t slot, Client& c, double done) {
    const auto& out = c.out;
    if (c.qt != nullptr) {
      sums_->traces.push_back(std::move(*c.qt));
      c.qt = nullptr;
    }
    sums_->Add(out);
    if (tel_ != nullptr) {
      QuerySummary summary;
      MirrorOutcome(out, versioned_, &summary);
      tel_->QueryDone(done, summary);
    }

    if (cache_on_ && !out.cache_hit && !out.unrecoverable) {
      // A completed answer carries a trusted epoch stamp: flush on skew
      // first, then cache the answer's valid scope under that epoch.
      const int region = c.trace->region;
      const int inv = c.cache->OnEpochObserved(out.epoch);
      sums_->cache_invalidations += inv;
      const int ev = c.cache->Insert(
          spans_[static_cast<size_t>(c.span)].sampler->cell(region), region,
          out.epoch);
      sums_->cache_evictions += ev;
      if (tel_ != nullptr) {
        tel_->CacheInvalidated(done, inv);
        tel_->CacheEvicted(done, ev);
      }
    }

    StreamRng rng =
        StreamRng::ForStream(c.key, FleetScheduleStream(c.query_index));
    ++c.query_index;
    const double u_churn = rng.Uniform(0.0, 1.0);
    if (u_churn < opt_.churn) {
      ++sums_->departures;
      if (tel_ != nullptr) tel_->Departure(done);
      const double delay = DrawExp(&rng);
      c.generation += 1;
      c.query_index = 0;
      c.key = FleetClientKey(opt_.seed, ClientId(slot, c.generation));
      // The departing client takes its cache and walk with it: the next
      // occupant starts cold (Clear is not an invalidation — nothing the
      // new client trusted was dropped).
      if (c.cache != nullptr) c.cache->Clear();
      c.walk = workload::MobilityState{};
      const double t_join = done + delay;
      if (t_join >= horizon_) {
        c.stage = Stage::kRetired;
        return;
      }
      c.stage = Stage::kJoin;
      queue_.push({t_join, slot});
      return;
    }
    // Poisson thinking time from the *previous arrival* (an open-loop
    // arrival process), clamped so the next query never starts before
    // this one finished.
    const double think = DrawExp(&rng);
    IssueQuery(slot, c, std::max(c.arrival + think, done));
  }

  /// Exponential with mean mean_think_; u < 1 so the draw is finite.
  double DrawExp(StreamRng* rng) {
    return -mean_think_ * std::log1p(-rng->Uniform(0.0, 1.0));
  }

  const std::vector<SpanContext>& spans_;
  const TimelineView air_;
  const AccessProtocol protocol_;
  const FleetOptions& opt_;
  const double horizon_;
  const int64_t shard_first_;
  const int64_t shard_clients_;
  QueryTally* sums_;
  TelemetryShard* const tel_;  ///< null unless FleetOptions::telemetry
  const int64_t cycle_;  ///< span 0's cycle (join / think-time base)
  const bool versioned_;
  const bool mobility_on_;
  const bool cache_on_;
  const double mean_think_;
  const bool tracing_;
  std::vector<Client> clients_;
  /// In-flight query traces by slot; sized only when tracing.
  std::vector<QueryTrace> open_traces_;
  /// The running query's trace when telemetry is attached without tracing.
  QueryTrace scratch_trace_;
  std::priority_queue<WakeUp, std::vector<WakeUp>, WakeUpLater> queue_;
  ProbeTrace probe_scratch_;
};

/// Option checks shared by RunFleet and RunFleetVersioned.
Status ValidateFleetOptions(const FleetOptions& options) {
  if (options.num_clients < 1) {
    return Status::InvalidArgument("fleet needs at least one client");
  }
  if (!(options.sim_cycles > 0.0) || !std::isfinite(options.sim_cycles)) {
    return Status::InvalidArgument("sim_cycles must be positive and finite");
  }
  if (!(options.queries_per_cycle > 0.0) ||
      !std::isfinite(options.queries_per_cycle)) {
    return Status::InvalidArgument(
        "queries_per_cycle must be positive and finite");
  }
  if (!(options.churn >= 0.0 && options.churn <= 1.0)) {
    return Status::InvalidArgument("churn must be in [0, 1]");
  }
  return options.Validate();
}

/// The shared engine driver: shard layout, parallel event loops,
/// shard-ordered merge, result assembly. `timeline` has one span for
/// RunFleet, one per epoch for RunFleetVersioned, and `spans` one context
/// per span; horizon and the channel-shape result fields are measured
/// against span 0.
Result<FleetResult> RunFleetImpl(const BroadcastTimeline& timeline,
                                 const std::vector<SpanContext>& spans,
                                 bool versioned,
                                 const FleetOptions& options,
                                 std::string index_name) {
  const BroadcastChannel& ch0 = timeline.channel(0);
  const double horizon =
      options.sim_cycles * static_cast<double>(ch0.cycle_packets());

  // Shard layout: fixed count, contiguous slot ranges, shard s always
  // owning the same slots regardless of threads.
  const int num_shards = static_cast<int>(
      std::min<int64_t>(kFleetShards, options.num_clients));
  const int64_t per_shard = options.num_clients / num_shards;
  const int64_t remainder = options.num_clients % num_shards;

  if (options.telemetry != nullptr) {
    options.telemetry->Reset(ch0.cycle_packets(), num_shards);
    options.telemetry->set_cache_enabled(options.cache.enabled);
  }

  std::vector<QueryTally> shards(static_cast<size_t>(num_shards),
                                 QueryTally(versioned));
  auto run_shard = [&](int s) {
    const int64_t shard_clients = per_shard + (s < remainder ? 1 : 0);
    const int64_t shard_first =
        s * per_shard + std::min<int64_t>(s, remainder);
    ShardEngine engine(spans, timeline.view(), versioned, options, horizon,
                       shard_first, shard_clients,
                       &shards[static_cast<size_t>(s)],
                       options.telemetry != nullptr
                           ? options.telemetry->shard(s)
                           : nullptr);
    engine.Run();
  };
  ThreadPool pool(options.num_threads);
  pool.ParallelFor(num_shards, run_shard);

  FleetResult res;
  Result<QueryTally> total_r = MergeShards(
      shards, ch0, std::move(index_name), options.trace_sink, &res);
  if (!total_r.ok()) return total_r.status();
  if (options.telemetry != nullptr) options.telemetry->MergeShards();
  const QueryTally& total = total_r.value();
  res.horizon_packets = static_cast<int64_t>(std::llround(horizon));
  res.num_clients = options.num_clients;
  res.sessions = total.sessions;
  res.departures = total.departures;
  res.total_epoch_switches = total.epoch_switches;
  res.epoch_churn_queries = total.epoch_churn;
  res.mean_epoch_switches =
      total.Mean(static_cast<double>(total.epoch_switches));
  res.cache_enabled = options.cache.enabled;
  return res;
}

/// Builds each epoch's channel and sampler and the timeline over them,
/// then runs the engine. RunFleet is the one-epoch case; `versioned` only
/// selects the versioned output fields.
Result<FleetResult> RunEpochs(const std::vector<FleetEpoch>& epochs,
                              const FleetOptions& options, bool versioned) {
  DTREE_RETURN_IF_ERROR(ValidateFleetOptions(options));
  if (epochs.empty()) {
    return Status::InvalidArgument(
        "versioned fleet needs at least one epoch");
  }
  for (const FleetEpoch& e : epochs) {
    if (e.index == nullptr || e.subdivision == nullptr) {
      return Status::InvalidArgument("epoch without an index/subdivision");
    }
  }

  // Channels and samplers are owned here and borrowed by the spans; the
  // wire format (packet capacity / instance size) is shared, so every
  // epoch's channel is built from the same ChannelOptions.
  const ChannelOptions copt = options.channel_options();
  std::vector<BroadcastChannel> channels;
  std::vector<QuerySampler> samplers;
  channels.reserve(epochs.size());
  samplers.reserve(epochs.size());
  for (const FleetEpoch& e : epochs) {
    Result<BroadcastChannel> ch_r = BroadcastChannel::Create(
        e.index->NumIndexPackets(), e.subdivision->NumRegions(), copt);
    if (!ch_r.ok()) return ch_r.status();
    channels.push_back(std::move(ch_r.value()));
    Result<QuerySampler> sampler_r = QuerySampler::Create(
        *e.subdivision, options.distribution, options.region_weights);
    if (!sampler_r.ok()) return sampler_r.status();
    samplers.push_back(std::move(sampler_r.value()));
  }

  std::vector<EpochSpan> epoch_spans;
  std::vector<SpanContext> spans;
  epoch_spans.reserve(epochs.size());
  spans.reserve(epochs.size());
  for (size_t i = 0; i < epochs.size(); ++i) {
    epoch_spans.push_back({&channels[i], epochs[i].epoch, epochs[i].cycles});
    spans.push_back({epochs[i].index, &samplers[i],
                     epochs[i].subdivision->service_area()});
  }
  Result<BroadcastTimeline> timeline_r =
      BroadcastTimeline::Create(std::move(epoch_spans));
  if (!timeline_r.ok()) return timeline_r.status();
  return RunFleetImpl(timeline_r.value(), spans, versioned, options,
                      epochs[0].index->name());
}

}  // namespace

Result<FleetResult> RunFleet(const AirIndex& index,
                             const sub::Subdivision& subdivision,
                             const FleetOptions& options) {
  // A plain broadcast: one epoch from 0 that never ends.
  return RunEpochs({{&index, &subdivision, /*epoch=*/0, /*cycles=*/1}},
                   options, /*versioned=*/false);
}

Result<FleetResult> RunFleetVersioned(const std::vector<FleetEpoch>& epochs,
                                      const FleetOptions& options) {
  return RunEpochs(epochs, options, /*versioned=*/true);
}

}  // namespace dtree::bcast
