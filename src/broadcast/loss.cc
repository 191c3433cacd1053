#include "broadcast/loss.h"

#include <cmath>
#include <string>

namespace dtree::bcast {

namespace {

Status CheckProbability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {  // negated to also catch NaN
    return Status::InvalidArgument(std::string(what) + " = " +
                                   std::to_string(p) +
                                   " is not a probability in [0, 1]");
  }
  return Status::OK();
}

/// P(at least one of `bits` independent flips at rate `ber`), computed as
/// -expm1(bits * log1p(-ber)) for accuracy at the tiny BERs radios see.
double FrameCorruptionProbability(double ber, int bits) {
  if (ber <= 0.0) return 0.0;
  if (ber >= 1.0) return 1.0;
  return -std::expm1(static_cast<double>(bits) * std::log1p(-ber));
}

}  // namespace

Status ValidateCorruptionOptions(const CorruptionOptions& options) {
  switch (options.model) {
    case CorruptionModel::kNone:
      return Status::OK();
    case CorruptionModel::kIidBits:
      return CheckProbability(options.bit_error_rate, "bit_error_rate");
    case CorruptionModel::kBurstBits:
      DTREE_RETURN_IF_ERROR(
          CheckProbability(options.p_good_to_bad, "corruption p_good_to_bad"));
      DTREE_RETURN_IF_ERROR(
          CheckProbability(options.p_bad_to_good, "corruption p_bad_to_good"));
      DTREE_RETURN_IF_ERROR(CheckProbability(options.ber_good, "ber_good"));
      DTREE_RETURN_IF_ERROR(CheckProbability(options.ber_bad, "ber_bad"));
      if (options.p_good_to_bad == 0.0 && options.p_bad_to_good == 0.0) {
        return Status::InvalidArgument(
            "burst-corruption chain needs a nonzero transition probability");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown corruption model");
}

Status ValidateLossOptions(const LossOptions& options) {
  if (options.max_retries < 0) {
    return Status::InvalidArgument("max_retries must be non-negative");
  }
  if (options.fallback_scan_cycles < 0) {
    return Status::InvalidArgument("fallback_scan_cycles must be non-negative");
  }
  if (options.max_epoch_switches < 0) {
    return Status::InvalidArgument("max_epoch_switches must be non-negative");
  }
  DTREE_RETURN_IF_ERROR(ValidateCorruptionOptions(options.corruption));
  switch (options.model) {
    case LossModel::kNone:
      return Status::OK();
    case LossModel::kIid:
      return CheckProbability(options.loss_rate, "loss_rate");
    case LossModel::kGilbertElliott:
      DTREE_RETURN_IF_ERROR(
          CheckProbability(options.p_good_to_bad, "p_good_to_bad"));
      DTREE_RETURN_IF_ERROR(
          CheckProbability(options.p_bad_to_good, "p_bad_to_good"));
      DTREE_RETURN_IF_ERROR(CheckProbability(options.loss_good, "loss_good"));
      DTREE_RETURN_IF_ERROR(CheckProbability(options.loss_bad, "loss_bad"));
      if (options.p_good_to_bad == 0.0 && options.p_bad_to_good == 0.0) {
        return Status::InvalidArgument(
            "Gilbert-Elliott chain needs a nonzero transition probability");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown loss model");
}

LossProcess::LossProcess(const LossOptions& options, uint64_t query_stream,
                         uint64_t stream)
    : options_(options),
      rng_(StreamRng::MixStream(
          StreamRng::MixStream(options.seed, query_stream), stream)) {
  if (options_.model == LossModel::kGilbertElliott) {
    // Stationary state occupancy: P(bad) = g2b / (g2b + b2g).
    const double denom = options_.p_good_to_bad + options_.p_bad_to_good;
    const double stationary_bad =
        denom > 0.0 ? options_.p_good_to_bad / denom : 0.0;
    bad_ = rng_.Uniform(0.0, 1.0) < stationary_bad;
  }
}

bool LossProcess::NextLost() {
  switch (options_.model) {
    case LossModel::kNone:
      return false;
    case LossModel::kIid:
      // Uniform() is in [0, 1): rate 0 never loses (and the draw keeps the
      // stream aligned with nonzero rates), rate 1 always loses.
      return rng_.Uniform(0.0, 1.0) < options_.loss_rate;
    case LossModel::kGilbertElliott: {
      const double p = bad_ ? options_.loss_bad : options_.loss_good;
      const bool lost = rng_.Uniform(0.0, 1.0) < p;
      const double flip =
          bad_ ? options_.p_bad_to_good : options_.p_good_to_bad;
      if (rng_.Uniform(0.0, 1.0) < flip) bad_ = !bad_;
      return lost;
    }
  }
  return false;
}

CorruptionProcess::CorruptionProcess(const CorruptionOptions& options,
                                     int frame_bits, uint64_t query_stream,
                                     uint64_t stream)
    : options_(options),
      rng_(StreamRng::MixStream(
          StreamRng::MixStream(options.seed, query_stream), stream)) {
  p_frame_ = FrameCorruptionProbability(options_.bit_error_rate, frame_bits);
  p_frame_good_ = FrameCorruptionProbability(options_.ber_good, frame_bits);
  p_frame_bad_ = FrameCorruptionProbability(options_.ber_bad, frame_bits);
  if (options_.model == CorruptionModel::kBurstBits) {
    const double denom = options_.p_good_to_bad + options_.p_bad_to_good;
    const double stationary_bad =
        denom > 0.0 ? options_.p_good_to_bad / denom : 0.0;
    bad_ = rng_.Uniform(0.0, 1.0) < stationary_bad;
  }
}

bool CorruptionProcess::NextCorrupted() {
  switch (options_.model) {
    case CorruptionModel::kNone:
      return false;
    case CorruptionModel::kIidBits:
      // Uniform() is in [0, 1): BER 0 never corrupts (and the draw keeps
      // the stream aligned with nonzero rates).
      return rng_.Uniform(0.0, 1.0) < p_frame_;
    case CorruptionModel::kBurstBits: {
      const double p = bad_ ? p_frame_bad_ : p_frame_good_;
      const bool corrupted = rng_.Uniform(0.0, 1.0) < p;
      const double flip =
          bad_ ? options_.p_bad_to_good : options_.p_good_to_bad;
      if (rng_.Uniform(0.0, 1.0) < flip) bad_ = !bad_;
      return corrupted;
    }
  }
  return false;
}

}  // namespace dtree::bcast
