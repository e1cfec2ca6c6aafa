// Fully-connected layer: y = x W^T + b, x: [N, in], W: [out, in], b: [out].
#pragma once

#include "nn/layer.h"
#include "nn/packed_weights.h"
#include "util/rng.h"

namespace con::nn {

class Linear : public Layer {
 public:
  Linear(tensor::Index in_features, tensor::Index out_features,
         con::util::Rng& rng, std::string layer_name = "linear");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  // The forward of a fused group (nn::Sequential): bias and `tail` run in
  // one pass over each output row after the product, and the tail's
  // backward mask goes to slot.aux. Bit-identical to this layer's forward
  // followed by the tail's layers.
  Tensor forward(const Tensor& x, bool train, TapeSlot& slot,
                 const tensor::OutputTail& tail) const;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return name_; }
  std::unique_ptr<Layer> clone() const override;

  // Deployed-integer forward (inference only, no tape): quantises x to the
  // key's activation grid, multiplies int8 codes against cached packed
  // weight-code panels with int32 accumulators, and requantises each
  // panel's tile with a round-half-even shift in the product's epilogue —
  // bit-identical to the compress::integer_exec oracle
  // (tests/oracles/integer_exec.h) for any --threads and any CON_KERNEL
  // (tensor/gemm_int8.h).
  // Requires weight_'s transform to snap onto exactly the key's grid.
  // `relu` folds a following ReLU into the requantiser's lower bound, as
  // in Conv2d::forward_int8.
  Tensor forward_int8(const Tensor& x, const Int8FormatKey& key,
                      bool relu = false) const;

  tensor::Index in_features() const { return in_features_; }
  tensor::Index out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Linear(const Linear&) = default;

  tensor::Index in_features_;
  tensor::Index out_features_;
  std::string name_;
  Parameter weight_;
  Parameter bias_;
  // Packed effective-weight panels, rebuilt when weight_'s fingerprint
  // changes (internally mutable: packing is not logical layer state).
  PackedWeightsCache cache_;
};

}  // namespace con::nn
