// Flat-arena probe engines: cache-conscious decoded form of an air index.
//
// The D-tree's per-probe packet decoder (dtree/serialize.h) re-parses
// wire bytes on every probe — correct, hardened, and its arena's
// bit-identical oracle, but slow: each query re-reads headers and
// re-promotes f32 coordinates. A FlatProbeEngine decodes the
// CRC-verified cycle (one PacketBuffer) ONCE into a flat arena (node
// records in contiguous arrays, child links as 32-bit indices, coordinates
// in flat arrays) and serves every subsequent probe from that arena. The
// D-tree's arena is also the layout a built DTree probes (dtree/arena.h). The D-tree engine replicates
// its decoder's exact arithmetic — same f32→double promotions, same
// comparison order, same ray-crossing formula — so its probes return
// byte-identical results to the decoder. Each baseline's engine
// (baselines/*/arena.h) is that family's only wire reader; its Build is
// the hardened decode. tests/arena_test and the bench_micro verification
// guard enforce both contracts.
//
// ArenaIndex adapts an engine back to the AirIndex interface — its
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

/// A decoded, immutable, probe-only form of one air index. Thread-safe
/// for concurrent ProbeInto calls (same contract as AirIndex::ProbeInto).
class FlatProbeEngine {
 public:
  virtual ~FlatProbeEngine() = default;

  /// Fills `*trace` with p's region and packet log, as read from the
  /// decoded wire bytes (see each engine's header for how that relates to
  /// the wrapped index's ProbeInto). Must clear any previous contents of the
  /// trace's vectors without shrinking them.
  virtual Status ProbeInto(const geom::Point& p,
                           ProbeTrace* trace) const = 0;

  /// Resident size of the arena's typed arrays, for the memory/throughput
  /// tradeoff table in EXPERIMENTS.md E14.
  virtual size_t ArenaBytes() const = 0;
};

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
