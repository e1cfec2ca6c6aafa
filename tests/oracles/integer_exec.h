// True integer execution of quantised layers, and the per-value
// fixed-point quantiser the fake-quant kernels are checked against.
//
// Fake-quantisation (quant_activation.h) simulates fixed-point arithmetic
// in float; a real edge NPU computes with integers. This module provides
// the integer path for fully-connected and convolution layers — int64
// accumulation over integer weight/activation codes, followed by a
// requantising shift — and the verification that it produces bit-identical
// results to the fake-quantised float path. That equivalence is what
// justifies running the whole study in the (much more convenient)
// fake-quantised form. These are deliberately naive loops: they are the
// semantic oracle the production int8 backend (tensor/gemm_int8.h,
// nn/*::forward_int8, compress/integer_model.h) must match bit for bit.
// No production path runs them.
#pragma once

#include <cstdint>
#include <vector>

#include "compress/fixed_point.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::compress {

// Quantise a single value: round-to-nearest onto the grid, then saturate.
// The per-value reference for tensor::fake_quant.
float fixed_point_quantize(float v, const FixedPointFormat& fmt);

// A fully-connected layer lowered to integer arithmetic. Weight codes are
// w / step(wfmt); input codes are x / step(xfmt); the bias is pre-scaled to
// the accumulator's fixed-point position.
struct IntegerLinear {
  FixedPointFormat weight_format;
  FixedPointFormat activation_format;
  tensor::Index in_features = 0;
  tensor::Index out_features = 0;
  std::vector<std::int32_t> weight_codes;  // [out, in]
  std::vector<std::int64_t> bias_codes;    // [out], at accumulator scale
};

// Lower quantised weights/bias to integer codes. `weights` must already lie
// on the weight format's grid (i.e. be the output of fixed_point_quantize);
// throws if any value is off-grid, because silent re-rounding would hide
// quantiser bugs.
IntegerLinear lower_linear(const tensor::Tensor& weights,
                           const tensor::Tensor& bias,
                           const FixedPointFormat& weight_format,
                           const FixedPointFormat& activation_format);

// Integer forward pass: quantise x to codes, int64 matmul, add bias codes,
// requantise the accumulator to the activation format (round-to-nearest,
// saturate). Returns float values on the activation grid.
tensor::Tensor integer_linear_forward(const IntegerLinear& layer,
                                      const tensor::Tensor& x);

// Reference float path: quantise x, multiply with the (already quantised)
// weights in float, add bias, quantise the result to the activation format.
tensor::Tensor fake_quant_linear_forward(const tensor::Tensor& weights,
                                         const tensor::Tensor& bias,
                                         const FixedPointFormat& wfmt,
                                         const FixedPointFormat& afmt,
                                         const tensor::Tensor& x);

// Max absolute divergence between the integer and fake-quant paths on a
// random input — the lowering is correct when this is exactly 0.
float integer_vs_fake_divergence(const IntegerLinear& layer,
                                 const tensor::Tensor& weights,
                                 const tensor::Tensor& bias,
                                 const tensor::Tensor& x);

// A convolution lowered to integer arithmetic over its im2col form:
// weight codes are the [out_channels, in_channels·kh·kw] patch matrix
// (nn/conv2d.h stores weights in exactly this shape), the bias at
// accumulator scale, the same requantising shift as the linear layer.
struct IntegerConv2d {
  FixedPointFormat weight_format;
  FixedPointFormat activation_format;
  tensor::Index out_channels = 0;
  tensor::Index patch_size = 0;  // in_channels · kernel_h · kernel_w
  std::vector<std::int32_t> weight_codes;  // [out_channels, patch_size]
  std::vector<std::int64_t> bias_codes;    // [out_channels], acc scale
};

// Lower quantised conv weights/bias to integer codes. Same grid contract
// and off-grid diagnostics as lower_linear.
IntegerConv2d lower_conv2d(const tensor::Tensor& weights,
                           const tensor::Tensor& bias,
                           const FixedPointFormat& weight_format,
                           const FixedPointFormat& activation_format);

// Integer conv forward: quantise x [N,C,H,W] to codes, im2col (padding is
// code 0), int64 patch products plus bias codes, requantise. Returns
// [N, outC, oh, ow] float values on the activation grid.
tensor::Tensor integer_conv2d_forward(const IntegerConv2d& layer,
                                      const tensor::Tensor& x,
                                      const tensor::Conv2dGeometry& g);

// Reference float path for the convolution, mirroring
// fake_quant_linear_forward: quantise x, float im2col product with the
// quantised weights, snapped bias, quantise the result.
tensor::Tensor fake_quant_conv2d_forward(const tensor::Tensor& weights,
                                         const tensor::Tensor& bias,
                                         const FixedPointFormat& wfmt,
                                         const FixedPointFormat& afmt,
                                         const tensor::Tensor& x,
                                         const tensor::Conv2dGeometry& g);

}  // namespace con::compress
