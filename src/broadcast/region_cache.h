// Client-side semantic region cache.
//
// A client that answered a nearest-site query from point p did not just
// learn a site id — it learned the Voronoi cell in which that answer stays
// valid. This cache stores (cell polygon, region/bucket address == the
// answer, epoch) entries per client; a follow-up query whose point still
// lies inside a cached cell is answered WITHOUT tuning into the broadcast
// at all: zero probe, zero index reads, zero doze, zero latency. That is
// the strongest energy saving the paper's framing admits, and it is what
// makes spatially correlated (mobile) workloads cheap.
//
// Correctness rules, in order of importance:
//
//  * A hit may never disagree with a cold probe. Two guards enforce this:
//    (1) containment uses the half-open tie-break
//        (geom::Polygon::ContainsHalfOpen), so even a point exactly on a
//        shared Voronoi edge resolves to at most one cached cell; and
//    (2) points within `boundary_eps` of the cached cell's boundary are
//        treated as misses outright — the same ambiguity band the
//        experiment oracle skips — so floating-point disagreement between
//        the cache polygon and the index's own geometry cannot surface.
//  * Epoch invalidation: entries are only valid for the epoch that
//    produced them. Observing a *trusted* (CRC-valid) epoch stamp that
//    differs from the cache's epoch — the kFailedPrecondition-style
//    version skew of broadcast/versioned.h — flushes every entry.
//    Loss and corruption do NOT invalidate: a dropped or mangled frame
//    carries no trustworthy epoch evidence, and the cached geometry is
//    still correct.
//  * Churn: a departing client's cache dies with it (Clear()); a new
//    generation starts cold.
//
// Bookkeeping is deterministic and thread-free: the cache is a per-client
// (or per-shard) value, LRU order is maintained by an intrusive list over
// a small entry vector, and every byte of the budget is accounted from
// the polygon's vertex count. No RNG is consumed anywhere, so enabling
// the cache cannot perturb any existing random draw (stream hygiene).

#ifndef DTREE_BROADCAST_REGION_CACHE_H_
#define DTREE_BROADCAST_REGION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>

#include "common/status.h"
#include "geom/point.h"
#include "geom/polygon.h"

namespace dtree::bcast {

struct CacheOptions {
  /// Off by default: every consumer is bit-identical to today.
  bool enabled = false;
  /// Per-client budget for cached cell geometry, in bytes. Entries are
  /// evicted LRU-first until the cache fits. Must be > 0 when enabled.
  size_t byte_budget = 16 * 1024;
  /// Points closer than this to the cached cell's boundary are misses
  /// (ambiguity band; matches the experiment oracle's border skip,
  /// geom::kMergeEps * 100).
  double boundary_eps = geom::kMergeEps * 100.0;
  /// Differential mode: every hit is replayed against a forced cold
  /// tune-in (same query, same channel state) and any divergence is an
  /// error. Used by tests and bench_cache; costs the cold simulation.
  bool verify_hits = false;
};

/// Validates ranges; called by the experiment and fleet drivers.
Status ValidateCacheOptions(const CacheOptions& options);

/// One client's region cache. Not thread-safe; clients are shard-local.
class RegionCache {
 public:
  explicit RegionCache(const CacheOptions& options) : options_(options) {}

  struct Entry {
    geom::Polygon cell;  ///< Voronoi valid scope of the answer
    int region = -1;     ///< site / bucket address — the answer itself
    uint16_t epoch = 0;  ///< broadcast epoch the answer was read from
    size_t bytes = 0;    ///< accounted footprint of this entry
  };

  /// Point-in-cached-region lookup, consulted *before* tuning in. On a
  /// hit the entry moves to the front of the LRU order and a pointer to
  /// it is returned (valid until the next mutating call); on a miss
  /// returns nullptr.
  const Entry* Lookup(const geom::Point& p);

  /// Caches `cell` as the valid scope of answer `region` read at `epoch`.
  /// Re-inserting a cached region refreshes its polygon and LRU position
  /// without double-counting bytes. Evicts LRU entries until the byte
  /// budget holds (a cell larger than the whole budget is dropped
  /// immediately and counts as an eviction). Returns evictions performed.
  int Insert(const geom::Polygon& cell, int region, uint16_t epoch);

  /// Reports a trusted epoch stamp (a CRC-valid read or a completed
  /// answer). A stamp differing from the cache's epoch is version skew:
  /// every entry is flushed. Same-epoch stamps are no-ops (a retry under
  /// loss keeps the cache intact). Returns the number of entries
  /// invalidated.
  int OnEpochObserved(uint16_t epoch);

  /// Drops every entry without counting an invalidation (churn: the
  /// client is gone, nothing it trusted was invalidated).
  void Clear();

  size_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }
  uint16_t epoch() const { return epoch_; }
  const CacheOptions& options() const { return options_; }

  /// Accounted footprint of a cached cell (entry header + ring vertices).
  static size_t EntryBytes(const geom::Polygon& cell) {
    return sizeof(Entry) + cell.NumVertices() * sizeof(geom::Point);
  }

 private:
  CacheOptions options_;
  /// MRU first. Lookups scan in recency order; caches are tens of
  /// entries, and the half-open tie-break guarantees at most one cached
  /// cell of the same tessellation contains any point, so first match is
  /// THE match.
  std::list<Entry> lru_;
  size_t bytes_ = 0;
  uint16_t epoch_ = 0;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_REGION_CACHE_H_
