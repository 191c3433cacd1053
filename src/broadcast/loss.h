// Deterministic packet-loss models for the broadcast channel.
//
// Real wireless broadcast media drop and corrupt frames; the (1, m)
// interleaving scheme exists precisely so a client can recover by waiting
// for the next index repetition. LossOptions selects a model:
//
//  * kNone            — the paper's perfectly reliable medium (default).
//  * kIid             — every packet read is lost independently with
//                       probability `loss_rate`.
//  * kGilbertElliott  — two-state Markov fading: a Good state with loss
//                       probability `loss_good` and a Bad state with
//                       `loss_bad`, switching with `p_good_to_bad` /
//                       `p_bad_to_good` per packet. Models burst loss.
//
// Determinism contract: every draw is keyed by (loss seed, query stream,
// read stream) through MixStream, so outcomes depend only on the seed
// and the query's global index — never on thread count or on what other
// queries did. Each process draws from a StreamRng (common/rng.h): one
// word of state and no set-up, so a process costs its draws and can be
// rebuilt from its key wherever it is needed. Each *attempt* of a
// query's access protocol draws from its own sub-stream; because an
// attempt reads a fixed number of packets (trace length + bucket
// packets) regardless of where earlier attempts failed, the set of loss
// rates at which attempt k succeeds is downward-closed — which makes a
// query's retry count monotone non-decreasing in the i.i.d. loss rate
// for a fixed seed (property-tested in tests/lossy_channel_test.cc).

#ifndef DTREE_BROADCAST_LOSS_H_
#define DTREE_BROADCAST_LOSS_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"

namespace dtree::bcast {

enum class LossModel {
  kNone,
  kIid,
  kGilbertElliott,
};

/// Bit-error models for *delivered* packets. A lost packet never arrives;
/// a corrupted one arrives with flipped bits, and the CRC-32 frame trailer
/// (broadcast/frame.h) is what turns that into a detectable kDataLoss
/// instead of a silently misrouted pointer chase. The simulator therefore
/// models corruption at packet granularity: a frame of b bits read under
/// bit-error rate e is corrupted with probability 1 - (1 - e)^b (CRC-32's
/// residual undetected-error probability, ~2^-32, is treated as zero).
enum class CorruptionModel {
  kNone,
  /// Every bit of a delivered frame flips independently with probability
  /// `bit_error_rate`.
  kIidBits,
  /// Two-state Markov fading over *bit*-error rates: `ber_good` /
  /// `ber_bad` per state, state switching per packet read with
  /// `p_good_to_bad` / `p_bad_to_good`. Models burst bit errors.
  kBurstBits,
};

struct CorruptionOptions {
  CorruptionModel model = CorruptionModel::kNone;
  /// kIidBits: per-bit flip probability in [0, 1].
  double bit_error_rate = 0.0;
  /// kBurstBits parameters; probabilities in [0, 1] and the two
  /// transition probabilities must not both be zero.
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.5;
  double ber_good = 0.0;
  double ber_bad = 1e-3;
  /// Corruption-process seed. Independent of both the query-stream seed
  /// and the loss seed: the corruption process draws from its own RNG
  /// sub-streams, so enabling it never perturbs a single loss draw (and
  /// a disabled or zero-rate model is bit-identical to today).
  uint64_t seed = 0;

  bool enabled() const { return model != CorruptionModel::kNone; }
};

struct LossOptions {
  LossModel model = LossModel::kNone;
  /// kIid: per-packet loss probability in [0, 1].
  double loss_rate = 0.0;
  /// kGilbertElliott parameters; probabilities in [0, 1] and the two
  /// transition probabilities must not both be zero.
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.5;
  double loss_good = 0.0;
  double loss_bad = 0.75;
  /// Loss-process seed, independent of the query-stream seed so the same
  /// query load can be replayed under different channel conditions.
  uint64_t seed = 0;
  /// Failed attempts a client tolerates before giving up; the protocol
  /// runs at most max_retries + 1 attempts. Must be >= 0.
  int max_retries = 16;
  /// Bit-corruption model applied to *delivered* packets (on top of, and
  /// independent from, the erasure model above).
  CorruptionOptions corruption;
  /// Degradation ladder, final rung: after the retry budget is exhausted
  /// the client may abandon the index and linearly scan the broadcast for
  /// its data bucket, for at most this many scan cycles, before reporting
  /// `unrecoverable`. 0 (the default) disables the fallback and preserves
  /// the pre-existing give-up behavior bit-for-bit.
  int fallback_scan_cycles = 0;
  /// Version-skew rung (broadcast/versioned.h): how many observed epoch
  /// switches a query tolerates — each switch abandons partial state and
  /// re-tunes into the new epoch's index — before giving up with
  /// GiveUpStage::kEpochChurn. Must be >= 0; irrelevant on a
  /// single-version broadcast.
  int max_epoch_switches = 8;

  bool enabled() const { return model != LossModel::kNone; }
  /// Any fault process active (erasures or bit corruption)?
  bool any_fault() const { return enabled() || corruption.enabled(); }
};

/// Validates ranges; called by BroadcastChannel::Create.
Status ValidateLossOptions(const LossOptions& options);

/// Validates ranges; called by ValidateLossOptions.
Status ValidateCorruptionOptions(const CorruptionOptions& options);

/// Per-query loss process on one sub-stream. Construct with the query's
/// stream id and the sub-stream of the protocol phase, then call
/// NextLost() once per packet read. The sub-stream families below are
/// disjoint (the stream table in common/rng.h).
class LossProcess {
 public:
  /// Sub-stream for the initial probe.
  static constexpr uint64_t kProbeStream = 0;
  /// Sub-stream for attempt k.
  static constexpr uint64_t AttemptStream(int attempt) {
    return static_cast<uint64_t>(attempt) + 1;
  }
  /// Sub-stream for fallback-scan cycle k.
  static constexpr uint64_t FallbackStream(int cycle) {
    return (uint64_t{1} << 32) + static_cast<uint64_t>(cycle);
  }
  /// Sub-stream for pass k of the indexless baseline's bucket retrieval
  /// (BroadcastChannel::SimulateNoIndex), so a query's indexed and
  /// indexless simulations never share a draw.
  static constexpr uint64_t NoIndexStream(int pass) {
    return (uint64_t{1} << 33) + static_cast<uint64_t>(pass);
  }

  /// Keys the draws by (options.seed, query_stream, stream). For
  /// kGilbertElliott the channel state starts from the stationary
  /// distribution (the time between attempts dwarfs the fade coherence
  /// time, so sub-streams see independent channel states).
  LossProcess(const LossOptions& options, uint64_t query_stream,
              uint64_t stream);

  bool enabled() const { return options_.enabled(); }

  /// Whether the next packet read is lost/corrupted. Never true when the
  /// model is kNone; draws nothing when disabled.
  bool NextLost();

 private:
  LossOptions options_;
  StreamRng rng_;
  bool bad_ = false;  ///< kGilbertElliott channel state
};

/// Per-query bit-corruption process, mirroring LossProcess but drawing
/// from its own RNG streams (keyed by the corruption seed) so the two
/// fault processes are statistically and bit-wise independent. Construct
/// with the framed packet size in bits and the same sub-stream ids as
/// LossProcess; NextCorrupted() draws once per *delivered* packet read and
/// reports whether the frame arrived with at least one flipped bit (which
/// the CRC then detects). For kBurstBits the fade state starts from its
/// stationary distribution.
class CorruptionProcess {
 public:
  CorruptionProcess(const CorruptionOptions& options, int frame_bits,
                    uint64_t query_stream, uint64_t stream);

  bool enabled() const { return options_.enabled(); }

  /// Whether the next delivered frame carries bit errors. Never true when
  /// the model is kNone; draws nothing when disabled.
  bool NextCorrupted();

 private:
  CorruptionOptions options_;
  StreamRng rng_;
  bool bad_ = false;        ///< kBurstBits fade state
  double p_frame_ = 0.0;      ///< kIidBits: per-frame corruption probability
  double p_frame_good_ = 0.0; ///< kBurstBits per-state frame probabilities
  double p_frame_bad_ = 0.0;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_LOSS_H_
