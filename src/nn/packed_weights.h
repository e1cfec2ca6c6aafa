// Cached packed weight panels for the GEMM-backed layers.
//
// Attacks run thousands of forward/backward passes against frozen weights,
// so Linear and Conv2d pack their effective (pruned/quantised) weight
// matrix into GEMM strips (tensor/gemm.h) once and reuse the panels for
// every subsequent call. The cache is invalidated by a fingerprint of the
// owning Parameter:
//
//   (version, value.data(), mask.data(), transform.get())
//
// `version` is the authoritative signal — Parameter's only write paths
// (set_value, set_mask, set_transform, edit) each bump it, so an optimizer
// step, pruner mask update, transform swap or checkpoint load always
// reaches the cache (nn/parameter.h). The storage pointers are a
// belt-and-braces check that catches tensor *reassignment* should the
// counter ever be defeated; they cannot catch in-place writes or
// same-capacity copy-assignment on their own, which is why the counter
// exists.
//
// Thread-safety: get() may be called from any number of concurrent eval
// forwards on a shared model (the transfer-study pattern). Readers receive
// a shared_ptr<const PackedWeights>, so a rebuild triggered by one thread
// never invalidates panels another thread is still multiplying with.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/parameter.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"

namespace con::nn {

// The fixed-point formats of a deployed-integer layer, as plain bit counts
// (integer_bits includes the sign). nn cannot see compress's
// FixedPointFormat — compress sits above nn — so the integer entry points
// take this POD and derive the (power-of-two) steps with ldexp, which
// matches FixedPointFormat::step() exactly. Part of the int8 panel cache
// fingerprint: panels quantised for one format pair never serve another.
struct Int8FormatKey {
  int weight_total_bits = 0;
  int weight_integer_bits = 0;
  int act_total_bits = 0;
  int act_integer_bits = 0;

  bool operator==(const Int8FormatKey& o) const {
    return weight_total_bits == o.weight_total_bits &&
           weight_integer_bits == o.weight_integer_bits &&
           act_total_bits == o.act_total_bits &&
           act_integer_bits == o.act_integer_bits;
  }
  bool operator!=(const Int8FormatKey& o) const { return !(*this == o); }
};

// One immutable snapshot of a parameter's effective weights, packed for
// the owning layer's forward and backward kernels.
struct PackedWeights {
  // Fingerprint of the Parameter state this snapshot was built from.
  std::uint64_t version = 0;
  const float* value_data = nullptr;
  const float* mask_data = nullptr;
  const void* transform = nullptr;

  Tensor effective;  // transform(value ⊙ mask) at build time
  Tensor gate;       // straight-through gate (empty when no transform)
  tensor::gemm::PackedMatrix fwd;  // operand panels for the forward GEMM
  tensor::gemm::PackedMatrix bwd;  // operand panels for the backward GEMM
};

// One immutable int8 snapshot of a quantised layer: weight codes packed
// into pair-interleaved panels (tensor/gemm_int8.h), the bias at
// accumulator scale, and the requantisation constants of the integer
// forward. Built only when the layer's weight transform snaps values onto
// a ≤ 8-bit fixed-point grid (the get_int8 caller passes the matching
// Int8FormatKey); quantising the effective weights here re-validates that
// every value is exactly on that grid.
struct PackedInt8Weights {
  // Fingerprint: the weight Parameter's state (as PackedWeights), plus the
  // bias Parameter and the format pair — int8 panels must never survive a
  // format change that float panels would shrug off.
  std::uint64_t version = 0;
  const float* value_data = nullptr;
  const float* mask_data = nullptr;
  const void* transform = nullptr;
  std::uint64_t bias_version = 0;
  const float* bias_data = nullptr;
  Int8FormatKey key;

  // Exactly one of these is filled, by layer orientation: Linear packs the
  // weights as the right operand (y = x·Wᵀ), Conv2d as the left (W·cols).
  tensor::gemm::PackedInt8A a;
  tensor::gemm::PackedInt8B b;

  std::vector<std::int32_t> bias_codes;  // accumulator scale sw·sa
  int shift = 0;                     // weight fraction bits
  std::int32_t out_lo = 0;           // activation code saturation bounds
  std::int32_t out_hi = 0;
  float out_scale = 0.0f;            // activation step (power of two)
  float act_inv_step = 0.0f;         // 1/step for quantising inputs
  float act_lo = 0.0f;               // activation value clamp bounds
  float act_hi = 0.0f;
};

class PackedWeightsCache {
 public:
  // Fills pw.fwd/pw.bwd from pw.effective; layer-specific (strip widths and
  // row/column-major orientation differ between Linear and Conv2d).
  using BuildFn = void (*)(PackedWeights& pw);

  // Packs the validated weight codes (row-major [rows, depth]) into the
  // layer's int8 panel orientation (pw.a or pw.b).
  using BuildInt8Fn = void (*)(PackedInt8Weights& pw,
                               const std::int8_t* codes, tensor::Index rows,
                               tensor::Index depth);

  PackedWeightsCache() = default;
  // Layer::clone copies layers wholesale; the copy must not share cache
  // state (its parameters are distinct objects), so it starts cold and
  // repacks on first use.
  PackedWeightsCache(const PackedWeightsCache&) {}
  PackedWeightsCache& operator=(const PackedWeightsCache&) { return *this; }

  // Returns the cached snapshot if the fingerprint still matches `p`,
  // otherwise rebuilds via `build` and caches the result.
  [[nodiscard]] std::shared_ptr<const PackedWeights> get(const Parameter& p,
                                           BuildFn build) const;

  // The int8 twin, in its own slot (a layer alternates freely between the
  // float and integer paths without thrashing either cache). Quantises
  // w's effective weights to codes — throwing, with the offending index
  // and value, if any weight or bias is non-finite or past ±2⁶² at its
  // scale (checked before any float→integer cast), any weight is off the
  // key's grid, or the format exceeds 8 bits — snaps the bias to
  // accumulator scale, validates int32 accumulator headroom (depth·2¹⁴
  // plus |bias| must stay below 2³¹), computes the requantisation
  // constants, then lets `build` pack the panels.
  [[nodiscard]] std::shared_ptr<const PackedInt8Weights> get_int8(
      const Parameter& w, const Parameter& bias, const Int8FormatKey& key,
      BuildInt8Fn build) const;

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const PackedWeights> current_;
  mutable std::shared_ptr<const PackedInt8Weights> int8_current_;
};

}  // namespace con::nn
