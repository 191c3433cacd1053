// Versioned broadcast server: live dataset updates published as immutable
// broadcast epochs.
//
// The broadcaster owns a mutable site set (hospitals opening, parks
// closing) but the air interface is an immutable cycle: clients descend a
// pointer-based index, so the subdivision, index layout, and bucket
// numbering must never change under a client mid-cycle. VersionedProgram
// resolves the tension with rebuild-per-epoch: updates queue between
// cycles, CommitEpoch applies the batch and rebuilds the *entire*
// pipeline from scratch — Voronoi subdivision, D-tree, channel layout,
// byte-level program, every frame stamped with the new epoch id — then
// publishes the result with one atomic pointer swap. The previous epoch
// stays resident (clients tuned into it are still draining their cycles;
// the fleet engine replays both), so the server always holds the last two
// epochs.
//
// The from-scratch rebuild is the correctness oracle: an epoch published
// by CommitEpoch is bit-identical to BuildEpoch run cold on the same site
// set — there is no incremental repair path whose drift could go
// unnoticed — and tests/epoch_test.cc holds CI to exactly that contract.
//
// Concurrency: Enqueue / Acquire / previous are safe from any thread.
// CommitEpoch is single-writer (the broadcaster's cycle boundary); it
// never blocks readers — they hold shared_ptrs to immutable state. A
// failed commit (e.g. an insert within sub::kMinSiteSeparation of an
// existing site, or a delete batch leaving too few sites) discards the
// offending batch and leaves the live epoch untouched.

#ifndef DTREE_DTREE_VERSIONED_H_
#define DTREE_DTREE_VERSIONED_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "dtree/dtree.h"
#include "dtree/program.h"
#include "geom/point.h"
#include "subdivision/subdivision.h"

namespace dtree::core {

/// One pending dataset mutation.
struct SiteUpdate {
  enum class Kind : uint8_t {
    kInsert,  ///< add site at p
    kDelete,  ///< remove the site nearest to p (lowest index on ties)
  };
  Kind kind = Kind::kInsert;
  geom::Point p;

  static SiteUpdate Insert(geom::Point p) {
    return SiteUpdate{Kind::kInsert, p};
  }
  static SiteUpdate Delete(geom::Point p) {
    return SiteUpdate{Kind::kDelete, p};
  }
};

/// Everything one epoch broadcasts, immutable once built: the site set,
/// its Voronoi valid scopes, the paged D-tree, the (1, m) channel layout,
/// and the byte-level program, whose frames are all stamped `epoch`.
struct EpochState {
  uint16_t epoch = 0;
  std::vector<geom::Point> sites;
  sub::Subdivision subdivision;
  DTree tree;
  bcast::BroadcastChannel channel;
  BroadcastProgram program;
};

class VersionedProgram {
 public:
  struct Options {
    geom::BBox service_area;
    bcast::ChannelOptions channel;  ///< capacity / m / loss template
    DTree::Options tree;
  };

  /// Floor on the live site count: deletes that would leave fewer sites
  /// are rejected (a broadcast of fewer regions than this is a degenerate
  /// configuration no experiment uses).
  static constexpr size_t kMinSites = 3;

  /// Builds epoch 0 from `sites` and publishes it.
  static Result<std::unique_ptr<VersionedProgram>> Create(
      std::vector<geom::Point> sites, const Options& options);

  /// The oracle: one epoch built cold — subdivision, tree, channel,
  /// program — with every frame stamped `epoch`. CommitEpoch publishes
  /// exactly this (same code path), which is the CI bit-identity contract.
  static Result<std::shared_ptr<const EpochState>> BuildEpoch(
      std::vector<geom::Point> sites, const Options& options, uint16_t epoch);

  /// Applies `updates` to `sites` in order. Pure; fails on a delete with
  /// no sites left or a batch ending below kMinSites (insert validity —
  /// service area, site separation — surfaces from the Voronoi build).
  static Result<std::vector<geom::Point>> ApplyUpdates(
      std::vector<geom::Point> sites,
      const std::vector<SiteUpdate>& updates);

  /// Queues an update for the next commit. Thread-safe.
  void Enqueue(SiteUpdate update);
  /// Queued updates not yet committed. Thread-safe.
  size_t pending() const;

  /// Drains the queue, rebuilds from scratch on the updated site set, and
  /// atomically publishes the new epoch (id = current + 1, wrapping with
  /// uint16). On error the live epoch is untouched and the drained batch
  /// is discarded. Single-writer.
  Result<std::shared_ptr<const EpochState>> CommitEpoch();

  /// The live epoch. Never null; the snapshot stays valid (immutable)
  /// for as long as the caller holds it, across any number of commits.
  /// The snapshot lock is held only for the pointer copy — readers never
  /// wait on a rebuild in progress.
  std::shared_ptr<const EpochState> Acquire() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return current_;
  }
  /// The epoch before the live one (resident for clients still draining
  /// it); null until the first commit.
  std::shared_ptr<const EpochState> previous() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return previous_;
  }

 private:
  explicit VersionedProgram(Options options)
      : options_(std::move(options)) {}

  Options options_;
  mutable std::mutex mu_;  ///< guards queue_
  std::vector<SiteUpdate> queue_;
  /// Guards the published snapshot pair. A plain mutex over shared_ptr
  /// copies instead of std::atomic<std::shared_ptr>: the critical section
  /// is two pointer copies, and libstdc++'s lock-bit _Sp_atomic protocol
  /// is opaque to ThreadSanitizer (the CI TSan job runs these paths).
  mutable std::mutex snap_mu_;
  std::shared_ptr<const EpochState> current_;
  std::shared_ptr<const EpochState> previous_;
};

}  // namespace dtree::core

#endif  // DTREE_DTREE_VERSIONED_H_
