#include "oracles/integer_exec.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "oracles/conv_lowering.h"

namespace con::compress {

using tensor::Index;
using tensor::Tensor;

namespace {

// Round-to-nearest-even right shift — the integer twin of the float path's
// std::nearbyint under the default rounding mode. shift must be >= 0.
std::int64_t rshift_round_half_even(std::int64_t v, int shift) {
  if (shift == 0) return v;
  const std::int64_t q = v >> shift;  // arithmetic shift: floor division
  const std::int64_t r = v - (q << shift);
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  if (r > half || (r == half && (q & 1))) return q + 1;
  return q;
}

std::int64_t quantize_to_code(float v, const FixedPointFormat& fmt) {
  const float s = fmt.step();
  std::int64_t code =
      static_cast<std::int64_t>(std::nearbyint(static_cast<double>(v) / s));
  const std::int64_t lo = -(std::int64_t{1} << (fmt.total_bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (fmt.total_bits - 1)) - 1;
  if (code < lo) code = lo;
  if (code > hi) code = hi;
  return code;
}

// Lower an on-grid weight tensor to integer codes. A value off the grid is
// a quantiser bug upstream; silent re-rounding would hide it, so the throw
// names the offending element, its value, and the format it missed.
std::vector<std::int32_t> lower_weight_codes(const Tensor& weights,
                                             const FixedPointFormat& fmt,
                                             const char* op) {
  const float sw = fmt.step();
  std::vector<std::int32_t> codes;
  codes.reserve(static_cast<std::size_t>(weights.numel()));
  for (Index i = 0; i < weights.numel(); ++i) {
    const double code_f = static_cast<double>(weights[i]) / sw;
    const auto code = static_cast<std::int64_t>(std::nearbyint(code_f));
    if (std::fabs(code_f - static_cast<double>(code)) > 1e-6) {
      throw std::invalid_argument(
          std::string(op) + ": weight[" + std::to_string(i) + "] = " +
          std::to_string(weights[i]) + " is not on the " + fmt.to_string() +
          " grid (step " + std::to_string(sw) + ", nearest code " +
          std::to_string(code) + ") — run fixed_point_quantize first");
    }
    codes.push_back(static_cast<std::int32_t>(code));
  }
  return codes;
}

// Bias lives at the accumulator's scale sw * sa; it is snapped, not
// validated — the float model's bias is never quantised.
std::vector<std::int64_t> lower_bias_codes(const Tensor& bias,
                                           const FixedPointFormat& wfmt,
                                           const FixedPointFormat& afmt) {
  const double acc_scale =
      static_cast<double>(wfmt.step()) * static_cast<double>(afmt.step());
  std::vector<std::int64_t> codes;
  codes.reserve(static_cast<std::size_t>(bias.numel()));
  for (Index i = 0; i < bias.numel(); ++i) {
    codes.push_back(static_cast<std::int64_t>(
        std::nearbyint(static_cast<double>(bias[i]) / acc_scale)));
  }
  return codes;
}

}  // namespace

float fixed_point_quantize(float v, const FixedPointFormat& fmt) {
  const float s = fmt.step();
  float q = std::nearbyint(v / s) * s;
  const float lo = fmt.lo();
  const float hi = fmt.hi();
  if (q < lo) q = lo;
  if (q > hi) q = hi;
  return q;
}

IntegerLinear lower_linear(const Tensor& weights, const Tensor& bias,
                           const FixedPointFormat& weight_format,
                           const FixedPointFormat& activation_format) {
  if (weights.rank() != 2 || bias.rank() != 1 ||
      bias.dim(0) != weights.dim(0)) {
    throw std::invalid_argument("lower_linear: expected W [out, in], b [out]");
  }
  IntegerLinear layer;
  layer.weight_format = weight_format;
  layer.activation_format = activation_format;
  layer.out_features = weights.dim(0);
  layer.in_features = weights.dim(1);
  layer.weight_codes =
      lower_weight_codes(weights, weight_format, "lower_linear");
  layer.bias_codes = lower_bias_codes(bias, weight_format, activation_format);
  return layer;
}

Tensor integer_linear_forward(const IntegerLinear& layer, const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != layer.in_features) {
    throw std::invalid_argument("integer_linear_forward: bad input shape");
  }
  const Index n = x.dim(0);
  const FixedPointFormat& afmt = layer.activation_format;
  const FixedPointFormat& wfmt = layer.weight_format;

  // Input codes.
  std::vector<std::int64_t> x_codes(static_cast<std::size_t>(x.numel()));
  for (Index i = 0; i < x.numel(); ++i) {
    x_codes[static_cast<std::size_t>(i)] = quantize_to_code(x[i], afmt);
  }

  // Requantising the accumulator (scale 2^-(fw+fa)) to the activation grid
  // (scale 2^-fa) is a right shift by fw bits.
  const int shift = wfmt.fraction_bits();
  const std::int64_t out_lo = -(std::int64_t{1} << (afmt.total_bits - 1));
  const std::int64_t out_hi =
      (std::int64_t{1} << (afmt.total_bits - 1)) - 1;

  Tensor y({n, layer.out_features});
  const float sa = afmt.step();
  for (Index i = 0; i < n; ++i) {
    for (Index o = 0; o < layer.out_features; ++o) {
      std::int64_t acc = layer.bias_codes[static_cast<std::size_t>(o)];
      const std::int32_t* wrow =
          layer.weight_codes.data() + o * layer.in_features;
      const std::int64_t* xrow = x_codes.data() + i * layer.in_features;
      for (Index k = 0; k < layer.in_features; ++k) {
        acc += static_cast<std::int64_t>(wrow[k]) * xrow[k];
      }
      std::int64_t out_code = rshift_round_half_even(acc, shift);
      if (out_code < out_lo) out_code = out_lo;
      if (out_code > out_hi) out_code = out_hi;
      y.at({i, o}) = static_cast<float>(out_code) * sa;
    }
  }
  return y;
}

Tensor fake_quant_linear_forward(const Tensor& weights, const Tensor& bias,
                                 const FixedPointFormat& wfmt,
                                 const FixedPointFormat& afmt,
                                 const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != weights.dim(1)) {
    throw std::invalid_argument("fake_quant_linear_forward: bad input shape");
  }
  const Index n = x.dim(0);
  const Index out = weights.dim(0);
  const Index in = weights.dim(1);
  // Quantise inputs to the activation grid (saturating to the *code* range,
  // matching quantize_to_code).
  Tensor xq({n, in});
  const float sa = afmt.step();
  for (Index i = 0; i < x.numel(); ++i) {
    xq[i] = static_cast<float>(quantize_to_code(x[i], afmt)) * sa;
  }
  // Bias snapped to the accumulator grid, as the integer path stores it.
  const double acc_scale =
      static_cast<double>(wfmt.step()) * static_cast<double>(sa);
  Tensor y({n, out});
  for (Index i = 0; i < n; ++i) {
    for (Index o = 0; o < out; ++o) {
      double acc = std::nearbyint(static_cast<double>(bias[o]) / acc_scale) *
                   acc_scale;
      for (Index k = 0; k < in; ++k) {
        acc += static_cast<double>(weights[o * in + k]) * xq[i * in + k];
      }
      // Requantise to the activation grid with saturation at the full code
      // range (same bounds as the integer path).
      const double code = std::nearbyint(acc / sa);
      const double lo = -std::ldexp(1.0, afmt.total_bits - 1);
      const double hi = std::ldexp(1.0, afmt.total_bits - 1) - 1.0;
      y.at({i, o}) =
          static_cast<float>(std::min(hi, std::max(lo, code)) * sa);
    }
  }
  return y;
}

IntegerConv2d lower_conv2d(const Tensor& weights, const Tensor& bias,
                           const FixedPointFormat& weight_format,
                           const FixedPointFormat& activation_format) {
  if (weights.rank() != 2 || bias.rank() != 1 ||
      bias.dim(0) != weights.dim(0)) {
    throw std::invalid_argument(
        "lower_conv2d: expected W [outC, C*kh*kw], b [outC]");
  }
  IntegerConv2d layer;
  layer.weight_format = weight_format;
  layer.activation_format = activation_format;
  layer.out_channels = weights.dim(0);
  layer.patch_size = weights.dim(1);
  layer.weight_codes =
      lower_weight_codes(weights, weight_format, "lower_conv2d");
  layer.bias_codes = lower_bias_codes(bias, weight_format, activation_format);
  return layer;
}

Tensor integer_conv2d_forward(const IntegerConv2d& layer, const Tensor& x,
                              const tensor::Conv2dGeometry& g) {
  if (x.rank() != 4 || x.dim(1) != g.in_channels || x.dim(2) != g.in_h ||
      x.dim(3) != g.in_w ||
      layer.patch_size != g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("integer_conv2d_forward: bad input shape");
  }
  const Index n = x.dim(0);
  const FixedPointFormat& afmt = layer.activation_format;
  const FixedPointFormat& wfmt = layer.weight_format;

  // Input codes, stored as exact float integers so the float im2col (and
  // its zero padding — code 0) lowers them with the production geometry.
  Tensor x_codes(x.shape());
  for (Index i = 0; i < x.numel(); ++i) {
    x_codes[i] = static_cast<float>(quantize_to_code(x[i], afmt));
  }
  const Tensor cols = tensor::im2col_batch(x_codes, g);
  const Index ncols = cols.dim(1);  // n · oh · ow

  const int shift = wfmt.fraction_bits();
  const std::int64_t out_lo = -(std::int64_t{1} << (afmt.total_bits - 1));
  const std::int64_t out_hi =
      (std::int64_t{1} << (afmt.total_bits - 1)) - 1;
  const float sa = afmt.step();
  const Index plane = g.out_h() * g.out_w();

  Tensor y({n, layer.out_channels, g.out_h(), g.out_w()});
  for (Index oc = 0; oc < layer.out_channels; ++oc) {
    const std::int32_t* wrow =
        layer.weight_codes.data() + oc * layer.patch_size;
    for (Index j = 0; j < ncols; ++j) {
      std::int64_t acc = layer.bias_codes[static_cast<std::size_t>(oc)];
      for (Index k = 0; k < layer.patch_size; ++k) {
        acc += static_cast<std::int64_t>(wrow[k]) *
               static_cast<std::int64_t>(cols[k * ncols + j]);
      }
      std::int64_t out_code = rshift_round_half_even(acc, shift);
      if (out_code < out_lo) out_code = out_lo;
      if (out_code > out_hi) out_code = out_hi;
      const Index img = j / plane, pix = j % plane;
      y[(img * layer.out_channels + oc) * plane + pix] =
          static_cast<float>(out_code) * sa;
    }
  }
  return y;
}

Tensor fake_quant_conv2d_forward(const Tensor& weights, const Tensor& bias,
                                 const FixedPointFormat& wfmt,
                                 const FixedPointFormat& afmt, const Tensor& x,
                                 const tensor::Conv2dGeometry& g) {
  if (x.rank() != 4 || weights.rank() != 2 ||
      weights.dim(1) != g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("fake_quant_conv2d_forward: bad input shape");
  }
  const Index n = x.dim(0);
  const Index outc = weights.dim(0);
  const Index patch = weights.dim(1);
  const float sa = afmt.step();
  Tensor xq(x.shape());
  for (Index i = 0; i < x.numel(); ++i) {
    xq[i] = static_cast<float>(quantize_to_code(x[i], afmt)) * sa;
  }
  const Tensor cols = tensor::im2col_batch(xq, g);
  const Index ncols = cols.dim(1);
  const double acc_scale =
      static_cast<double>(wfmt.step()) * static_cast<double>(sa);
  const Index plane = g.out_h() * g.out_w();
  Tensor y({n, outc, g.out_h(), g.out_w()});
  for (Index oc = 0; oc < outc; ++oc) {
    const float* wrow = weights.data() + oc * patch;
    const double b =
        std::nearbyint(static_cast<double>(bias[oc]) / acc_scale) * acc_scale;
    for (Index j = 0; j < ncols; ++j) {
      double acc = b;
      for (Index k = 0; k < patch; ++k) {
        acc += static_cast<double>(wrow[k]) *
               static_cast<double>(cols[k * ncols + j]);
      }
      const double code = std::nearbyint(acc / sa);
      const double lo = -std::ldexp(1.0, afmt.total_bits - 1);
      const double hi = std::ldexp(1.0, afmt.total_bits - 1) - 1.0;
      const Index img = j / plane, pix = j % plane;
      y[(img * outc + oc) * plane + pix] =
          static_cast<float>(std::min(hi, std::max(lo, code)) * sa);
    }
  }
  return y;
}

float integer_vs_fake_divergence(const IntegerLinear& layer,
                                 const Tensor& weights, const Tensor& bias,
                                 const Tensor& x) {
  Tensor a = integer_linear_forward(layer, x);
  Tensor b = fake_quant_linear_forward(weights, bias, layer.weight_format,
                                       layer.activation_format, x);
  float worst = 0.0f;
  for (Index i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace con::compress
