#include "compress/fixed_point.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace con::compress {

bool FixedPointFormat::valid() const {
  return total_bits >= 2 && total_bits <= 64 && integer_bits >= 1 &&
         integer_bits < total_bits;
}

FixedPointFormat checked_format(FixedPointFormat fmt, const char* who) {
  if (!fmt.valid()) {
    throw std::invalid_argument(
        std::string(who) + ": invalid fixed-point format total_bits=" +
        std::to_string(fmt.total_bits) + " integer_bits=" +
        std::to_string(fmt.integer_bits) +
        " (need 2 <= total <= 64 and 1 <= integer < total)");
  }
  return fmt;
}

float FixedPointFormat::step() const {
  return std::ldexp(1.0f, -fraction_bits());
}

float FixedPointFormat::lo() const {
  return -std::ldexp(1.0f, integer_bits - 1);
}

float FixedPointFormat::hi() const {
  return std::ldexp(1.0f, integer_bits - 1) - step();
}

FixedPointFormat FixedPointFormat::paper_format(int total_bits) {
  int integer_bits = 4;
  if (total_bits == 4) integer_bits = 1;
  else if (total_bits == 8) integer_bits = 2;
  if (integer_bits >= total_bits) integer_bits = total_bits - 1;
  return checked_format(FixedPointFormat{.total_bits = total_bits,
                                         .integer_bits = integer_bits},
                        "paper_format");
}

std::string FixedPointFormat::to_string() const {
  return "Q" + std::to_string(integer_bits) + "." +
         std::to_string(fraction_bits()) + " (" + std::to_string(total_bits) +
         " bits)";
}

Tensor fixed_point_quantize(const Tensor& t, const FixedPointFormat& fmt) {
  Tensor out(t.shape());
  tensor::fake_quant(out, nullptr, t, fmt.step(), fmt.lo(), fmt.hi());
  return out;
}

FixedPointWeightTransform::FixedPointWeightTransform(FixedPointFormat fmt)
    : fmt_(checked_format(fmt, "FixedPointWeightTransform")) {}

void FixedPointWeightTransform::apply(const Tensor& raw, Tensor& effective,
                                      Tensor& gate) const {
  tensor::fake_quant(effective, &gate, raw, fmt_.step(), fmt_.lo(), fmt_.hi());
}

std::string FixedPointWeightTransform::describe() const {
  return "fixed-point " + fmt_.to_string();
}

}  // namespace con::compress
