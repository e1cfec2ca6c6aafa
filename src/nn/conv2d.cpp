#include "nn/conv2d.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/random.h"

namespace con::nn {

using tensor::Index;
using tensor::Tensor;

namespace {

// out = W · cols wants W packed row-major as the left operand (rows =
// outC); the input gradient's Wᵀ · go wants W as the left operand of a TN
// product, i.e. packed along columns (rows = C·k·k).
void pack_conv(PackedWeights& pw) {
  pw.fwd = tensor::gemm::pack_rowmajor(pw.effective, tensor::gemm::kStripA);
  pw.bwd = tensor::gemm::pack_colmajor(pw.effective, tensor::gemm::kStripA);
}

// out = W · cols puts the weight codes on the left: A panels, rows = outC.
void pack_conv_int8(PackedInt8Weights& pw, const std::int8_t* codes,
                    Index rows, Index depth) {
  pw.a = tensor::gemm::pack_int8_a(codes, rows, depth);
}

}  // namespace

Conv2d::Conv2d(const Conv2dSpec& spec, con::util::Rng& rng,
               std::string layer_name)
    : spec_(spec),
      name_(std::move(layer_name)),
      weight_(name_ + ".weight",
              Tensor({spec.out_channels,
                      spec.in_channels * spec.kernel * spec.kernel})),
      bias_(name_ + ".bias", Tensor({spec.out_channels})) {
  if (spec.in_channels <= 0 || spec.out_channels <= 0 || spec.kernel <= 0) {
    throw std::invalid_argument(name_ + ": invalid conv spec");
  }
  weight_.edit([&](Tensor& w, Tensor&) {
    tensor::fill_kaiming_normal(w, rng,
                                spec.in_channels * spec.kernel * spec.kernel);
  });
  bias_.compressible = false;
}

Tensor Conv2d::forward(const Tensor& x, bool train, TapeSlot& slot) const {
  return forward(x, train, slot, {});
}

Tensor Conv2d::forward(const Tensor& x, bool train, TapeSlot& slot,
                       const tensor::OutputTail& tail) const {
  if (x.rank() != 4 || x.dim(1) != spec_.in_channels) {
    throw std::invalid_argument(name_ + ": expected input [N, " +
                                std::to_string(spec_.in_channels) +
                                ", H, W], got " + x.shape().to_string());
  }
  const Index n = x.dim(0);
  slot.geom = tensor::Conv2dGeometry{
      .in_channels = spec_.in_channels,
      .in_h = x.dim(2),
      .in_w = x.dim(3),
      .kernel_h = spec_.kernel,
      .kernel_w = spec_.kernel,
      .stride = spec_.stride,
      .padding = spec_.padding,
  };
  const Index oh = slot.geom.out_h(), ow = slot.geom.out_w();
  slot.packed = cache_.get(weight_, &pack_conv);
  if (train) weight_.grad_gate = slot.packed->gate;
  slot.batch = n;

  // Only the weight gradient needs the input again (it re-lowers the
  // columns from it); an input-gradient-only backward needs the geometry
  // and panels alone, so eval tapes keep nothing.
  if (slot.accumulate_param_grads) {
    slot.input = x;
  } else if (!slot.input.empty()) {
    slot.input = Tensor();
  }
  // out[outC, N*P] = W[outC, C*k*k] * cols[C*k*k, N*P], each panel lowered
  // from x and written to NCHW with the bias and tail by the GEMM's
  // epilogue. The mask reuses the slot's storage; the epilogue writes every
  // element, so a same-shape slot skips resize's zero fill.
  Tensor y({n, spec_.out_channels, oh, ow});
  if (!tail.empty() && slot.aux.shape() != y.shape()) {
    slot.aux.resize(y.shape());
  }
  tensor::gemm::conv2d_nn(slot.packed->fwd, x.data(), n, slot.geom,
                          bias_.value().data(), y.data(), tail,
                          slot.aux.data());
  return y;
}

Tensor Conv2d::forward_int8(const Tensor& x, const Int8FormatKey& key,
                            bool relu) const {
  if (x.rank() != 4 || x.dim(1) != spec_.in_channels) {
    throw std::invalid_argument(name_ + ": expected input [N, " +
                                std::to_string(spec_.in_channels) +
                                ", H, W], got " + x.shape().to_string());
  }
  const Index n = x.dim(0);
  const tensor::Conv2dGeometry geom{
      .in_channels = spec_.in_channels,
      .in_h = x.dim(2),
      .in_w = x.dim(3),
      .kernel_h = spec_.kernel,
      .kernel_w = spec_.kernel,
      .stride = spec_.stride,
      .padding = spec_.padding,
  };
  const auto pw = cache_.get_int8(weight_, bias_, key, &pack_conv_int8);

  // Input codes; each GEMM panel lowers its columns from them (padding is
  // code 0) and requantises its int32 tile straight into NCHW with the
  // per-channel bias folded at accumulator scale.
  std::vector<std::int8_t> xcodes(static_cast<std::size_t>(x.numel()));
  tensor::gemm::quantize_codes(xcodes.data(), x.data(), pw->act_inv_step,
                               pw->act_lo, pw->act_hi, x.numel());
  // A grouped ReLU is the requantiser's lower bound: relu(code·scale) =
  // max(code, 0)·scale.
  const std::int32_t out_lo =
      relu ? std::max(pw->out_lo, std::int32_t{0}) : pw->out_lo;
  Tensor y({n, spec_.out_channels, geom.out_h(), geom.out_w()});
  tensor::gemm::conv2d_int8(pw->a, xcodes.data(), n, geom,
                            pw->bias_codes.data(), pw->shift, out_lo,
                            pw->out_hi, pw->out_scale, y.data());
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out, TapeSlot& slot) const {
  const Index n = slot.batch;
  const Index oh = slot.geom.out_h(), ow = slot.geom.out_w();
  const Index plane = oh * ow;
  if (grad_out.rank() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != spec_.out_channels || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow) {
    throw std::invalid_argument(name_ + ": bad grad_out shape " +
                                grad_out.shape().to_string());
  }
  const float* go = grad_out.data();
  const Index m = spec_.out_channels;
  if (slot.accumulate_param_grads) {
    // dW += go[outC, N*P] * cols[CKK, N*P]^T, go read as NCHW and the
    // column rows re-lowered from the saved input chunk by chunk.
    if (slot.input.numel() != n * slot.geom.in_channels * slot.geom.in_h *
                                  slot.geom.in_w) {
      throw std::logic_error(
          name_ + ": weight gradient requested but the forward ran without "
                  "accumulate_param_grads, so the input was not kept");
    }
    tensor::gemm::conv2d_nt(go, m, slot.input.data(), n, slot.geom,
                            weight_.grad.data());
    // db += row sums of go[outC, N*P], each row in ascending column order.
    float* bg = bias_.grad.data();
    for (Index c = 0; c < m; ++c) {
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) {
        const float* row = go + (i * m + c) * plane;
        for (Index p = 0; p < plane; ++p) acc += row[p];
      }
      bg[c] += static_cast<float>(acc);
    }
  }
  // dX = col2im(W^T * go), one image at a time.
  Tensor dx({n, slot.geom.in_channels, slot.geom.in_h, slot.geom.in_w});
  tensor::gemm::conv2d_tn(slot.packed->bwd, go, n, slot.geom, dx.data());
  return dx;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::unique_ptr<Layer>(new Conv2d(*this));
}

}  // namespace con::nn
