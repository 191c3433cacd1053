#include "broadcast/region_cache.h"

#include <cmath>

namespace dtree::bcast {

Status ValidateCacheOptions(const CacheOptions& options) {
  if (!options.enabled) return Status::OK();
  if (options.byte_budget == 0) {
    return Status::InvalidArgument("cache byte_budget must be > 0");
  }
  if (!(options.boundary_eps >= 0.0) ||
      !std::isfinite(options.boundary_eps)) {
    return Status::InvalidArgument(
        "cache boundary_eps must be finite and >= 0");
  }
  return Status::OK();
}

const RegionCache::Entry* RegionCache::Lookup(const geom::Point& p) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (!it->cell.ContainsHalfOpen(p)) continue;
    if (it->cell.DistanceToBoundary(p) <= options_.boundary_eps) {
      // Ambiguity band: the point is (nearly) on the cell boundary, where
      // the cache's polygon and the index's own geometry could disagree
      // at floating-point granularity. Refuse to answer.
      return nullptr;
    }
    if (it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
    return &lru_.front();
  }
  return nullptr;
}

int RegionCache::Insert(const geom::Polygon& cell, int region,
                        uint16_t epoch) {
  epoch_ = epoch;
  // Refresh an existing entry for the same region in place.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->region != region) continue;
    bytes_ -= it->bytes;
    it->cell = cell;
    it->epoch = epoch;
    it->bytes = EntryBytes(cell);
    bytes_ += it->bytes;
    if (it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
    break;
  }
  if (lru_.empty() || lru_.front().region != region) {
    Entry e;
    e.cell = cell;
    e.region = region;
    e.epoch = epoch;
    e.bytes = EntryBytes(cell);
    bytes_ += e.bytes;
    lru_.push_front(std::move(e));
  }
  int evicted = 0;
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    bytes_ -= lru_.back().bytes;
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

int RegionCache::OnEpochObserved(uint16_t epoch) {
  if (epoch == epoch_) return 0;
  epoch_ = epoch;
  const int dropped = static_cast<int>(lru_.size());
  lru_.clear();
  bytes_ = 0;
  return dropped;
}

void RegionCache::Clear() {
  lru_.clear();
  bytes_ = 0;
}

}  // namespace dtree::bcast
