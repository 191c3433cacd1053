// Flat-arena probe engines: the cache-conscious layout every air index
// probes.
//
// A FlatProbeEngine holds one index as node records in contiguous arrays,
// child links as 32-bit indices and coordinates in flat arrays. Each
// family has exactly one such layout and one descent over it
// (dtree/arena.h, baselines/*/arena.h), filled from one of two sources:
// the built tree writes its exact doubles into it, or the family's
// hardened wire decode reads one CRC-verified cycle (one PacketBuffer)
// into it once, promoting the f32 coordinates, so probes never re-parse
// wire bytes. The D-tree's decode replicates its per-probe decoder's
// exact arithmetic — same f32→double promotions, same comparison order,
// same ray-crossing formula — so its probes return byte-identical results
// to the decoder. Each baseline's decode is that family's only wire
// reader. tests/arena_test, tests/baseline_pin_test and the bench_micro
// verification guard enforce these contracts.
//
// ArenaIndex adapts a decoded engine back to the AirIndex interface — its
// ProbeInto is the engine's — while reporting the wrapped index's
// identity (name, packet count, byte size), so BroadcastChannel::Simulate
// and bcast::RunExperiment produce byte-identical output with the arena
// enabled. See DESIGN.md §12.

#ifndef DTREE_BROADCAST_ARENA_H_
#define DTREE_BROADCAST_ARENA_H_

#include <memory>
#include <string>
#include <utility>

#include "broadcast/air_index.h"
#include "common/check.h"
#include "common/status.h"
#include "geom/point.h"

namespace dtree::bcast {

/// An immutable, probe-only layout of one air index. Thread-safe for
/// concurrent ProbeInto calls (same contract as AirIndex::ProbeInto).
/// ProbeInto and Locate are written once, here, over each family's
/// Descend.
class FlatProbeEngine {
 public:
  virtual ~FlatProbeEngine() = default;

  /// Fills `*trace` with p's region and packet log from the layout (see
  /// each engine's header for how a decoded layout relates to the built
  /// tree's), clearing any previous contents of the trace's vectors
  /// without shrinking them.
  Status ProbeInto(const geom::Point& p, ProbeTrace* trace) const {
    trace->region = -1;
    trace->packets.clear();
    trace->origins.clear();
    return Descend(p, trace, &trace->region);
  }

  /// The region p descends to, with no packet accounting; -1 where
  /// ProbeInto fails.
  int Locate(const geom::Point& p) const {
    int region = -1;
    return Descend(p, nullptr, &region).ok() ? region : -1;
  }

  /// Resident size of the arena's typed arrays, for the memory/throughput
  /// tradeoff table in EXPERIMENTS.md E14.
  virtual size_t ArenaBytes() const = 0;

 protected:
  /// The family's descent from its root: sets *region on success and,
  /// when `trace` is non-null, appends the packets read (and, where the
  /// layout keeps them, their origins).
  virtual Status Descend(const geom::Point& p, ProbeTrace* trace,
                         int* region) const = 0;
};

/// A descent's failure: kDataLoss over a decoded cycle, where it means
/// the bytes are bad (the degradation ladder's re-tune trigger), and
/// kInternal over a built tree, where it means a broken invariant.
inline Status DescentFailure(bool decoded, const char* msg) {
  return decoded ? Status::DataLoss(msg) : Status::Internal(msg);
}

/// AirIndex adapter over a FlatProbeEngine. Reports the wrapped index's
/// identity so experiment results (index name, packet counts, index bytes)
/// are byte-identical whether probes run through the base index or the
/// arena.
class ArenaIndex final : public AirIndex {
 public:
  ArenaIndex(std::string name, int num_index_packets, size_t index_bytes,
             int packet_capacity, std::unique_ptr<FlatProbeEngine> engine)
      : name_(std::move(name)), num_index_packets_(num_index_packets),
        index_bytes_(index_bytes), packet_capacity_(packet_capacity),
        engine_(std::move(engine)) {
    DTREE_CHECK(engine_ != nullptr);
  }

  /// Convenience: capture `base`'s identity around `engine`.
  ArenaIndex(const AirIndex& base, std::unique_ptr<FlatProbeEngine> engine)
      : ArenaIndex(base.name(), base.NumIndexPackets(), base.IndexBytes(),
                   base.PacketCapacity(), std::move(engine)) {}

  std::string name() const override { return name_; }
  int NumIndexPackets() const override { return num_index_packets_; }
  size_t IndexBytes() const override { return index_bytes_; }
  int PacketCapacity() const override { return packet_capacity_; }

  Status ProbeInto(const geom::Point& p, ProbeTrace* trace) const override {
    return engine_->ProbeInto(p, trace);
  }

  const FlatProbeEngine& engine() const { return *engine_; }

 private:
  std::string name_;
  int num_index_packets_;
  size_t index_bytes_;
  int packet_capacity_;
  std::unique_ptr<FlatProbeEngine> engine_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_ARENA_H_
