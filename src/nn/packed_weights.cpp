#include "nn/packed_weights.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace con::nn {

namespace {

// round(v / step) as an int64 code, after checking that it is finite and
// well inside the int64 range (so neither the cast nor a later |code| can
// overflow); throws naming `what`[i] and its value otherwise.
std::int64_t nearest_code(float v, double step, const char* what,
                          tensor::Index i) {
  const double code = std::nearbyint(static_cast<double>(v) / step);
  if (!std::isfinite(code) || std::fabs(code) > 0x1p62) {
    throw std::invalid_argument(
        std::string("get_int8: ") + what + "[" + std::to_string(i) +
        "] = " + std::to_string(v) +
        " is not finite or overflows the int64 code range");
  }
  return static_cast<std::int64_t>(code);
}

}  // namespace

std::shared_ptr<const PackedWeights> PackedWeightsCache::get(
    const Parameter& p, BuildFn build) const {
  const float* mask_data = p.mask().empty() ? nullptr : p.mask().data();
  const void* transform = p.transform().get();
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr && current_->version == p.version() &&
      current_->value_data == p.value().data() &&
      current_->mask_data == mask_data &&
      current_->transform == transform) {
    static obs::Counter& hits = obs::counter("packed_cache.hit");
    hits.add(1);
    return current_;
  }
  static obs::Counter& misses = obs::counter("packed_cache.miss");
  misses.add(1);
  if (current_ != nullptr) {
    static obs::Counter& repacks = obs::counter("packed_cache.repack");
    repacks.add(1);
  }
  // Rebuild under the lock: redundant packing by racing threads would be
  // harmless but wasteful, and rebuilds are rare (weights are frozen for
  // the whole of an attack run).
  auto pw = std::make_shared<PackedWeights>();
  pw->version = p.version();
  pw->value_data = p.value().data();
  pw->mask_data = mask_data;
  pw->transform = transform;
  pw->effective = p.effective(pw->gate);
  build(*pw);
  current_ = pw;
  return current_;
}

std::shared_ptr<const PackedInt8Weights> PackedWeightsCache::get_int8(
    const Parameter& w, const Parameter& bias, const Int8FormatKey& key,
    BuildInt8Fn build) const {
  const float* mask_data = w.mask().empty() ? nullptr : w.mask().data();
  const void* transform = w.transform().get();
  std::lock_guard<std::mutex> lock(mu_);
  if (int8_current_ != nullptr && int8_current_->version == w.version() &&
      int8_current_->value_data == w.value().data() &&
      int8_current_->mask_data == mask_data &&
      int8_current_->transform == transform &&
      int8_current_->bias_version == bias.version() &&
      int8_current_->bias_data == bias.value().data() &&
      int8_current_->key == key) {
    static obs::Counter& hits = obs::counter("packed_cache.int8.hit");
    hits.add(1);
    return int8_current_;
  }
  static obs::Counter& misses = obs::counter("packed_cache.int8.miss");
  misses.add(1);
  if (int8_current_ != nullptr) {
    static obs::Counter& repacks = obs::counter("packed_cache.int8.repack");
    repacks.add(1);
  }
  if (key.weight_total_bits < 2 || key.weight_total_bits > 8 ||
      key.act_total_bits < 2 || key.act_total_bits > 8) {
    throw std::invalid_argument(
        "get_int8: int8 backend requires 2..8-bit formats, got weight " +
        std::to_string(key.weight_total_bits) + " / activation " +
        std::to_string(key.act_total_bits) + " bits");
  }
  const int wfrac = key.weight_total_bits - key.weight_integer_bits;
  const int afrac = key.act_total_bits - key.act_integer_bits;
  if (wfrac < 0 || afrac < 0) {
    throw std::invalid_argument(
        "get_int8: integer bits exceed total bits in the format key");
  }

  auto pw = std::make_shared<PackedInt8Weights>();
  pw->version = w.version();
  pw->value_data = w.value().data();
  pw->mask_data = mask_data;
  pw->transform = transform;
  pw->bias_version = bias.version();
  pw->bias_data = bias.value().data();
  pw->key = key;

  Tensor gate;
  const Tensor eff = w.effective(gate);
  if (eff.rank() != 2) {
    throw std::invalid_argument(
        "get_int8: expected a [rows, depth] weight matrix, got " +
        eff.shape().to_string());
  }
  const tensor::Index rows = eff.dim(0);
  const tensor::Index depth = eff.dim(1);

  // Quantise the effective weights to codes, re-validating the grid: the
  // transform already snapped them, so an off-grid value here means the
  // key does not describe the transform actually attached to `w`.
  const double sw = std::ldexp(1.0, -wfrac);
  const std::int64_t wlo = -(std::int64_t{1} << (key.weight_total_bits - 1));
  const std::int64_t whi =
      (std::int64_t{1} << (key.weight_total_bits - 1)) - 1;
  std::vector<std::int8_t> codes(static_cast<std::size_t>(eff.numel()));
  for (tensor::Index i = 0; i < eff.numel(); ++i) {
    const std::int64_t code = nearest_code(eff[i], sw, "effective weight", i);
    const double code_f = static_cast<double>(eff[i]) / sw;
    if (std::fabs(code_f - static_cast<double>(code)) > 1e-6 || code < wlo ||
        code > whi) {
      throw std::invalid_argument(
          "get_int8: effective weight[" + std::to_string(i) + "] = " +
          std::to_string(eff[i]) + " is not a " +
          std::to_string(key.weight_total_bits) + "-bit code (step " +
          std::to_string(sw) +
          ") — the format key does not match the weight transform");
    }
    codes[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(code);
  }

  // Bias at accumulator scale, plus the int32 headroom proof: every code
  // magnitude is ≤ 2⁷, so |Σ w·x| ≤ depth·2¹⁴, and adding the bias must
  // still be representable. The kernels accumulate in int32 (dispatch.h);
  // past this bound the backend would silently wrap, so refuse loudly.
  const double acc_scale = sw * std::ldexp(1.0, -afrac);
  std::int64_t max_abs_bias = 0;
  pw->bias_codes.reserve(static_cast<std::size_t>(bias.value().numel()));
  for (tensor::Index i = 0; i < bias.value().numel(); ++i) {
    const std::int64_t code =
        nearest_code(bias.value()[i], acc_scale, "bias", i);
    max_abs_bias = std::max<std::int64_t>(max_abs_bias,
                                          code < 0 ? -code : code);
    pw->bias_codes.push_back(static_cast<std::int32_t>(code));
  }
  if (static_cast<std::int64_t>(depth) * 16384 + max_abs_bias >=
      (std::int64_t{1} << 31)) {
    throw std::invalid_argument(
        "get_int8: depth " + std::to_string(depth) +
        " with max |bias code| " + std::to_string(max_abs_bias) +
        " exceeds int32 accumulator headroom");
  }

  pw->shift = wfrac;
  pw->out_lo = -(std::int32_t{1} << (key.act_total_bits - 1));
  pw->out_hi = (std::int32_t{1} << (key.act_total_bits - 1)) - 1;
  pw->out_scale = static_cast<float>(std::ldexp(1.0, -afrac));
  pw->act_inv_step = static_cast<float>(std::ldexp(1.0, afrac));
  pw->act_lo = static_cast<float>(pw->out_lo * std::ldexp(1.0, -afrac));
  pw->act_hi = static_cast<float>(pw->out_hi * std::ldexp(1.0, -afrac));
  build(*pw, codes.data(), rows, depth);
  int8_current_ = pw;
  return int8_current_;
}

}  // namespace con::nn
