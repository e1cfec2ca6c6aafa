#include "oracles/deepfool_reference.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/tape.h"
#include "tensor/ops.h"

namespace con::attacks {

using tensor::Index;

namespace {

void check_inputs(const Tensor& images, const std::vector<int>& labels,
                  const AttackParams& params) {
  if (images.rank() < 2) {
    throw std::invalid_argument("deepfool: images must be batched");
  }
  if (static_cast<std::size_t>(images.dim(0)) != labels.size()) {
    throw std::invalid_argument("deepfool: image/label count mismatch");
  }
  if (params.iterations <= 0) {
    throw std::invalid_argument("deepfool: iterations must be > 0");
  }
}

// One forward + per-class backward: returns logits and the gradient of
// every logit w.r.t. the input. Exploits the fact that Layer::backward only
// reads the tape written by forward, so a single forward supports K
// backward passes against the same tape.
struct Linearisation {
  std::vector<float> logits;
  std::vector<Tensor> grads;  // grads[k] = ∇ₓ f_k
};

Linearisation linearise(const nn::Sequential& model, nn::ForwardTape& tape,
                        const Tensor& sample_batch, int num_classes) {
  Linearisation lin;
  Tensor logits = model.forward(sample_batch, /*train=*/false, tape);
  if (logits.dim(1) != num_classes) {
    throw std::invalid_argument("deepfool: class count mismatch");
  }
  lin.logits.resize(static_cast<std::size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    lin.logits[static_cast<std::size_t>(k)] = logits.at({0, k});
  }
  lin.grads.reserve(static_cast<std::size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    Tensor seed(logits.shape());
    seed.at({0, k}) = 1.0f;
    lin.grads.push_back(model.backward(seed, tape));
  }
  return lin;
}

}  // namespace

DeepFoolResult deepfool_reference(const nn::Sequential& model,
                                  const Tensor& images,
                                  const std::vector<int>& labels,
                                  const AttackParams& params,
                                  int num_classes) {
  check_inputs(images, labels, params);
  const Index n = images.dim(0);
  const float overshoot = params.epsilon;

  DeepFoolResult result;
  result.adversarial = images;
  result.iterations_used.resize(static_cast<std::size_t>(n), 0);
  result.perturbation_l2.resize(static_cast<std::size_t>(n), 0.0f);

  // One tape per sample loop: slots recycle their storage across iterates.
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  for (Index s = 0; s < n; ++s) {
    const int y = labels[static_cast<std::size_t>(s)];
    Tensor sample = tensor::slice_batch(images, s);
    std::vector<Index> batch_dims = {1};
    for (Index d : sample.shape().dims()) batch_dims.push_back(d);
    const tensor::Shape batch_shape{std::move(batch_dims)};
    // Work in single-sample batch shape throughout: model gradients come
    // back batch-shaped.
    Tensor x0 = sample.reshaped(batch_shape);

    // Accumulated (un-overshot) perturbation r.
    Tensor r(x0.shape());
    int it = 0;
    for (; it < params.iterations; ++it) {
      // Current iterate carries the overshoot, as in the reference
      // implementation: x_i = x0 + (1 + η) r.
      Tensor xi = tensor::add_scaled(x0, r, 1.0f + overshoot);
      tensor::clamp_inplace(xi, 0.0f, 1.0f);
      Linearisation lin = linearise(model, tape, xi, num_classes);

      const int pred = static_cast<int>(
          tensor::argmax(Tensor({num_classes}, std::vector<float>(
                                                   lin.logits.begin(),
                                                   lin.logits.end()))));
      if (pred != y) break;  // already fooled

      // Nearest linearised boundary among all wrong classes.
      float best_dist = std::numeric_limits<float>::infinity();
      float best_f = 0.0f;
      float best_wnorm2 = 0.0f;
      Tensor best_w;
      const Tensor& grad_y = lin.grads[static_cast<std::size_t>(y)];
      for (int k = 0; k < num_classes; ++k) {
        if (k == y) continue;
        Tensor w_k =
            tensor::sub(lin.grads[static_cast<std::size_t>(k)], grad_y);
        const float f_k = lin.logits[static_cast<std::size_t>(k)] -
                          lin.logits[static_cast<std::size_t>(y)];
        const float wnorm = tensor::l2_norm(w_k);
        if (wnorm < 1e-12f) continue;
        const float dist = std::fabs(f_k) / wnorm;
        if (dist < best_dist) {
          best_dist = dist;
          best_f = f_k;
          best_wnorm2 = wnorm * wnorm;
          best_w = std::move(w_k);
        }
      }
      if (best_w.empty()) break;  // degenerate gradients; give up

      // r_i = (|f| / ‖w‖²) · w, with a tiny floor so progress never stalls.
      const float coeff = (std::fabs(best_f) + 1e-4f) / best_wnorm2;
      tensor::add_scaled_inplace(r, best_w, coeff);
    }

    Tensor adv = tensor::add_scaled(x0, r, 1.0f + overshoot);
    tensor::clamp_inplace(adv, 0.0f, 1.0f);
    result.iterations_used[static_cast<std::size_t>(s)] = it;
    result.perturbation_l2[static_cast<std::size_t>(s)] =
        tensor::l2_norm(tensor::sub(adv, x0));
    tensor::set_batch(result.adversarial, s, adv.reshaped(sample.shape()));
  }
  return result;
}

Tensor logit_input_gradient(const nn::Sequential& model,
                            const Tensor& sample_batch, int class_index,
                            int num_classes) {
  if (sample_batch.dim(0) != 1) {
    throw std::invalid_argument(
        "logit_input_gradient expects a single-sample batch");
  }
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  Tensor logits = model.forward(sample_batch, /*train=*/false, tape);
  if (logits.dim(1) != num_classes) {
    throw std::invalid_argument("logit_input_gradient: class count mismatch");
  }
  if (class_index < 0 || class_index >= num_classes) {
    throw std::out_of_range("logit_input_gradient: class index out of range");
  }
  Tensor seed(logits.shape());
  seed.at({0, class_index}) = 1.0f;
  return model.backward(seed, tape);
}

}  // namespace con::attacks
