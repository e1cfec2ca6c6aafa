#include "nn/linear.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace con::nn {

using tensor::Index;

namespace {

// y = x Wᵀ wants W packed row-major (rows = out); dx = g W wants W as the
// right operand of an NN product, i.e. packed along columns (rows = in).
void pack_linear(PackedWeights& pw) {
  pw.fwd = tensor::gemm::pack_rowmajor(pw.effective, tensor::gemm::kStripB);
  pw.bwd = tensor::gemm::pack_colmajor(pw.effective, tensor::gemm::kStripB);
}

// y = x·Wᵀ puts the weight codes on the right: B panels, rows = out.
void pack_linear_int8(PackedInt8Weights& pw, const std::int8_t* codes,
                      Index rows, Index depth) {
  pw.b = tensor::gemm::pack_int8_b(codes, rows, depth);
}

}  // namespace

Linear::Linear(Index in_features, Index out_features, con::util::Rng& rng,
               std::string layer_name)
    : in_features_(in_features),
      out_features_(out_features),
      name_(std::move(layer_name)),
      weight_(name_ + ".weight", Tensor({out_features, in_features})),
      bias_(name_ + ".bias", Tensor({out_features})) {
  weight_.edit([&](Tensor& w, Tensor&) {
    tensor::fill_kaiming_normal(w, rng, in_features);
  });
  bias_.compressible = false;
}

Tensor Linear::forward(const Tensor& x, bool train, TapeSlot& slot) const {
  return forward(x, train, slot, {});
}

Tensor Linear::forward(const Tensor& x, bool train, TapeSlot& slot,
                       const tensor::OutputTail& tail) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument(name_ + ": expected input [N, " +
                                std::to_string(in_features_) + "], got " +
                                x.shape().to_string());
  }
  slot.input = x;
  slot.packed = cache_.get(weight_, &pack_linear);
  // The optimizer reads grad_gate at step() time; only a training forward
  // (single-threaded by contract) may refresh it.
  if (train) weight_.grad_gate = slot.packed->gate;
  // y[N, out] = x[N, in] * W[out, in]^T
  Tensor y = tensor::gemm::matmul_nt(x, slot.packed->fwd);
  if (!tail.empty() && slot.aux.shape() != y.shape()) {
    slot.aux.resize(y.shape());
  }
  tensor::bias_add_inplace(y, bias_.value(), tail, slot.aux.data());
  return y;
}

Tensor Linear::forward_int8(const Tensor& x, const Int8FormatKey& key,
                            bool relu) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument(name_ + ": expected input [N, " +
                                std::to_string(in_features_) + "], got " +
                                x.shape().to_string());
  }
  const Index n = x.dim(0);
  const auto pw = cache_.get_int8(weight_, bias_, key, &pack_linear_int8);
  // Input codes, packed as the left operand.
  std::vector<std::int8_t> xcodes(static_cast<std::size_t>(x.numel()));
  tensor::gemm::quantize_codes(xcodes.data(), x.data(), pw->act_inv_step,
                               pw->act_lo, pw->act_hi, x.numel());
  const tensor::gemm::PackedInt8A pa =
      tensor::gemm::pack_int8_a(xcodes.data(), n, in_features_);
  // A grouped ReLU is the requantiser's lower bound: relu(code·scale) =
  // max(code, 0)·scale.
  const std::int32_t out_lo =
      relu ? std::max(pw->out_lo, std::int32_t{0}) : pw->out_lo;
  // y[N, out]: each panel's int32 tile requantised with the per-column bias.
  Tensor y({n, out_features_});
  tensor::gemm::matmul_int8(pa, pw->b, pw->bias_codes.data(), pw->shift,
                            out_lo, pw->out_hi, pw->out_scale, y.data());
  return y;
}

Tensor Linear::backward(const Tensor& grad_out, TapeSlot& slot) const {
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_features_ ||
      grad_out.dim(0) != slot.input.dim(0)) {
    throw std::invalid_argument(name_ + ": bad grad_out shape " +
                                grad_out.shape().to_string());
  }
  if (slot.accumulate_param_grads) {
    // dW[out, in] = grad_out[N, out]^T * x[N, in]
    Tensor dw = tensor::gemm::matmul_tn(grad_out, slot.input);
    tensor::add_inplace(weight_.grad, dw);
    // db[out] = column sums of grad_out
    tensor::column_sums_add_inplace(bias_.grad, grad_out);
  }
  // dx[N, in] = grad_out[N, out] * W[out, in]
  return tensor::gemm::matmul_nn(grad_out, slot.packed->bwd);
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::unique_ptr<Layer>(new Linear(*this));
}

}  // namespace con::nn
