// 2-D convolution over NCHW batches: one GEMM of the packed weights with the
// input's im2col column matrix, lowered panel by panel inside the GEMM and
// written back as NCHW by its epilogue (tensor/gemm.h conv2d_nn) — the
// column matrix itself is never materialised. Backward reads the NCHW
// output gradient directly: the weight gradient re-lowers the column rows
// from the kept input in depth chunks and adds into weight.grad
// (conv2d_nt), and the input gradient scatters Wᵀ·go one image at a time
// (conv2d_tn) — no gathered gradient, column gradient or dW temporary.
#pragma once

#include "nn/layer.h"
#include "nn/packed_weights.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace con::nn {

struct Conv2dSpec {
  tensor::Index in_channels = 0;
  tensor::Index out_channels = 0;
  tensor::Index kernel = 0;  // square kernels only, as in LeNet5/CifarNet
  tensor::Index stride = 1;
  tensor::Index padding = 0;
};

class Conv2d : public Layer {
 public:
  Conv2d(const Conv2dSpec& spec, con::util::Rng& rng,
         std::string layer_name = "conv");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  // The forward of a fused group (nn::Sequential): `tail` runs in the GEMM
  // epilogue on each output run while it is hot, and its backward mask
  // goes to slot.aux. The group's backward applies that mask before
  // backward(). Bit-identical to this layer's forward followed by the
  // tail's layers.
  Tensor forward(const Tensor& x, bool train, TapeSlot& slot,
                 const tensor::OutputTail& tail) const;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return name_; }
  std::unique_ptr<Layer> clone() const override;

  // Deployed-integer forward (inference only, no tape): quantises x to the
  // key's activation grid, multiplies cached packed weight-code panels with
  // the codes' column matrix lowered panel by panel (padding is code 0,
  // int32 accumulators), and requantises each panel straight into NCHW
  // (tensor/gemm_int8.h conv2d_int8) — bit-identical to the
  // compress::integer_exec oracle (tests/oracles/integer_exec.h) for any
  // --threads and any CON_KERNEL.
  // `relu` folds a following ReLU into the requantiser's lower bound,
  // max(out_lo, 0): the same bits as the float ReLU on the output.
  Tensor forward_int8(const Tensor& x, const Int8FormatKey& key,
                      bool relu = false) const;

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Conv2d(const Conv2d&) = default;

  Conv2dSpec spec_;
  std::string name_;
  // weight stored as [out_channels, in_channels * k * k] for the matmul.
  Parameter weight_;
  Parameter bias_;
  // Packed effective-weight panels, rebuilt when weight_'s fingerprint
  // changes (internally mutable: packing is not logical layer state).
  PackedWeightsCache cache_;
};

}  // namespace con::nn
