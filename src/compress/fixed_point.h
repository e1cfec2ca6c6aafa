// Fixed-point number format and fake-quantisation, following the paper's
// §3.2/§4.2 setup: signed fixed-point with `integer_bits` to the left of the
// binary point (sign included) and the remaining bits as fraction.
//
// Paper bit allocations: "a 1-bit integer when bitwidth is 4, a 2-bit
// integer when bitwidth is 8, and 4-bit integers for the rest" — encoded in
// FixedPointFormat::paper_format().
#pragma once

#include <cstdint>
#include <string>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace con::compress {

using tensor::Tensor;

struct FixedPointFormat {
  int total_bits = 32;
  int integer_bits = 4;  // includes the sign

  int fraction_bits() const { return total_bits - integer_bits; }
  // 2 ≤ total_bits ≤ 64 and 1 ≤ integer_bits < total_bits: a sign bit, at
  // least one fraction bit, and a step whose reciprocal is a finite float
  // (at 200 bits step() underflows to 0 and quantisation would yield NaN).
  // Every quantiser constructor checks it.
  bool valid() const;
  // Quantisation step 2^-f.
  float step() const;
  // Saturation bounds [lo, hi]: lo = -2^(i-1), hi = 2^(i-1) - step.
  float lo() const;
  float hi() const;

  // The paper's integer-bit allocation for a given bitwidth. Throws
  // std::invalid_argument when the bitwidth gives no valid() format.
  static FixedPointFormat paper_format(int total_bits);

  std::string to_string() const;
};

// Returns `fmt`, or throws std::invalid_argument naming `who` and the
// format when !fmt.valid().
FixedPointFormat checked_format(FixedPointFormat fmt, const char* who);

// Quantise a whole tensor (returns a new tensor) through tensor::fake_quant:
// round-to-nearest onto the grid, then saturate.
Tensor fixed_point_quantize(const Tensor& t, const FixedPointFormat& fmt);

// Weight transform plugging fixed-point fake-quantisation into Parameter.
// The gradient gate implements the saturating straight-through estimator:
// gradient flows where |raw| is inside the representable range and is
// blocked where the value saturated.
class FixedPointWeightTransform : public nn::WeightTransform {
 public:
  // Throws std::invalid_argument unless fmt.valid().
  explicit FixedPointWeightTransform(FixedPointFormat fmt);

  void apply(const Tensor& raw, Tensor& effective,
             Tensor& gate) const override;
  std::string describe() const override;

  const FixedPointFormat& format() const { return fmt_; }

 private:
  FixedPointFormat fmt_;
};

}  // namespace con::compress
