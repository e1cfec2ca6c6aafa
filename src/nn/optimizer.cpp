#include "nn/optimizer.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::nn {

using tensor::Index;

Sgd::Sgd(std::vector<Parameter*> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) velocity_.emplace_back(p->value().shape());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& vel = velocity_[i];
    const Index n = p.value().numel();
    if (p.grad.numel() != n) {
      throw std::logic_error("Sgd: grad size mismatch for " + p.name);
    }
    const bool gated = !p.grad_gate.empty();
    if (gated && p.grad_gate.numel() != n) {
      throw std::logic_error("Sgd: grad_gate size mismatch for " + p.name);
    }
    const float* g = p.grad.data();
    const float* gate = gated ? p.grad_gate.data() : nullptr;
    float* v = vel.data();
    const float lr = config_.learning_rate;
    const float mu = config_.momentum;
    const float wd = config_.weight_decay;
    // edit() bumps the version, so packed-weight panels built from the old
    // values are not served again (nn/packed_weights.h).
    p.edit([&](Tensor& value, Tensor&) {
      float* w = value.data();
      for (Index j = 0; j < n; ++j) {
        float gj = g[j];
        if (gate) gj *= gate[j];
        if (wd != 0.0f) gj += wd * w[j];
        v[j] = mu * v[j] + gj;
        w[j] -= lr * v[j];
      }
    });
  }
}

StepLrSchedule::StepLrSchedule(float base_lr, std::vector<int> milestone_epochs,
                               float decay)
    : base_lr_(base_lr), milestones_(std::move(milestone_epochs)),
      decay_(decay) {
  if (base_lr <= 0.0f) throw std::invalid_argument("base_lr must be positive");
  for (std::size_t i = 1; i < milestones_.size(); ++i) {
    if (milestones_[i] <= milestones_[i - 1]) {
      throw std::invalid_argument("milestones must be strictly increasing");
    }
  }
}

float StepLrSchedule::lr_at_epoch(int epoch) const {
  float lr = base_lr_;
  for (int m : milestones_) {
    if (epoch >= m) lr *= decay_;
  }
  return lr;
}

StepLrSchedule StepLrSchedule::paper_schedule(float base_lr, int total_epochs) {
  // Three decays at 1/4, 2/4, 3/4 of training (guarding tiny runs where the
  // quarters would collide).
  std::vector<int> milestones;
  for (int k = 1; k <= 3; ++k) {
    int m = total_epochs * k / 4;
    if (m <= 0) m = k;
    if (!milestones.empty() && m <= milestones.back()) m = milestones.back() + 1;
    milestones.push_back(m);
  }
  return StepLrSchedule(base_lr, std::move(milestones), 0.1f);
}

}  // namespace con::nn
