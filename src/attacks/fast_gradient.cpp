#include "attacks/fast_gradient.h"

#include <algorithm>
#include <stdexcept>

#include "attacks/gradient.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace con::attacks {

using tensor::Index;

namespace {

void check_inputs(const Tensor& images, const std::vector<int>& labels,
                  const AttackParams& params) {
  if (images.rank() < 2) {
    throw std::invalid_argument("attack: images must be batched");
  }
  if (static_cast<std::size_t>(images.dim(0)) != labels.size()) {
    throw std::invalid_argument("attack: image/label count mismatch");
  }
  if (params.epsilon <= 0.0f || params.iterations <= 0) {
    throw std::invalid_argument("attack: epsilon and iterations must be > 0");
  }
}

}  // namespace

void fast_gradient_range(const nn::Sequential& model, const Tensor& images,
                         Index lo, Index hi, const std::vector<int>& labels,
                         const AttackParams& params, FastGradientRule rule,
                         Tensor& out_adversarial) {
  check_inputs(images, labels, params);
  if (lo < 0 || hi > images.dim(0) || lo > hi) {
    throw std::out_of_range("fast_gradient_range: bad row range");
  }
  if (out_adversarial.shape() != images.shape()) {
    throw std::invalid_argument("fast_gradient_range: output shape mismatch");
  }
  if (lo == hi) return;
  const Index per_sample = images.numel() / images.dim(0);

  // Working iterate for the chunk. This is the only batch-sized buffer the
  // loop owns; every iteration updates it in place.
  Tensor adv = tensor::copy_rows(images, lo, hi);
  const std::vector<int> chunk_labels(
      labels.begin() + static_cast<std::ptrdiff_t>(lo),
      labels.begin() + static_cast<std::ptrdiff_t>(hi));

  // The batch loss is a mean; rescale by the range's row count so each
  // sample sees the gradient of its own (un-averaged) loss. Exact only for
  // a power-of-two count (see fast_gradient.h).
  const float batch_scale = static_cast<float>(adv.dim(0));
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  Tensor grad;
  const Index n = adv.numel();
  const float eps = params.epsilon;
  static obs::Counter& steps = obs::counter("attack.fast_gradient.steps");
  static obs::Distribution& step_time =
      obs::dist("attack.fast_gradient.step_ns");
  for (int it = 0; it < params.iterations; ++it) {
    obs::ScopedTimer step_timer(step_time);
    steps.add(1);
    grad = loss_input_gradient(model, adv, chunk_labels, tape);
    tensor::scale_inplace(grad, batch_scale);
    const float* g = grad.data();
    const float* prev = adv.data();
    // The last iteration writes through to the caller's rows; earlier ones
    // update the iterate in place (prev[i] is read before x[i] is written,
    // so full aliasing is fine).
    float* x = (it + 1 == params.iterations)
                   ? out_adversarial.data() + lo * per_sample
                   : adv.data();
    for (Index i = 0; i < n; ++i) {
      const float step =
          rule == FastGradientRule::kSign
              ? eps * (g[i] > 0.0f ? 1.0f : (g[i] < 0.0f ? -1.0f : 0.0f))
              : eps * g[i];
      float v = prev[i] + step;
      // Clip to the ε-ball around the previous iterate (Algorithm 1), then
      // to the valid pixel domain.
      v = std::min(prev[i] + eps, std::max(prev[i] - eps, v));
      v = std::min(1.0f, std::max(0.0f, v));
      x[i] = v;
    }
  }
}

}  // namespace con::attacks
