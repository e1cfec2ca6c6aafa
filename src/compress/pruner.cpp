#include "compress/pruner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace con::compress {

using tensor::Index;
using tensor::Tensor;

namespace {

// The (1-density)-quantile of |values|: pruning weights with magnitude
// strictly below the returned α keeps `keep = round(density·n)` weights
// (modulo ties at α itself).
float magnitude_threshold(const Tensor& values, double density) {
  const Index n = values.numel();
  const auto keep = static_cast<Index>(
      std::llround(density * static_cast<double>(n)));
  if (keep >= n) return 0.0f;  // keep everything: |w| < 0 never holds
  std::vector<float> mags(static_cast<std::size_t>(n));
  const float* d = values.data();
  for (Index i = 0; i < n; ++i) mags[static_cast<std::size_t>(i)] =
      std::fabs(d[i]);
  if (keep <= 0) {
    // prune everything: α above the largest magnitude
    return *std::max_element(mags.begin(), mags.end()) * 2.0f + 1.0f;
  }
  // α = smallest surviving magnitude: the (n-keep)-th order statistic
  // (0-indexed). Everything strictly below it is pruned.
  const std::size_t cut = static_cast<std::size_t>(n - keep);
  std::nth_element(mags.begin(), mags.begin() + cut, mags.end());
  return mags[cut];
}

}  // namespace

DnsPruner::DnsPruner(nn::Sequential& model, DnsConfig config)
    : model_(&model), config_(config),
      current_target_(config.anneal_steps > 0 ? 1.0 : config.target_density) {
  if (config_.target_density <= 0.0 || config_.target_density > 1.0) {
    throw std::invalid_argument("target_density must be in (0, 1]");
  }
  if (config_.hysteresis < 0.0) {
    throw std::invalid_argument("hysteresis must be non-negative");
  }
  for (nn::Parameter* p : model_->parameters()) {
    if (!p->compressible) continue;
    if (!p->has_mask()) p->set_mask(Tensor(p->value().shape(), 1.0f));
    pruned_params_.push_back(p);
  }
  if (pruned_params_.empty()) {
    throw std::invalid_argument("model has no compressible parameters");
  }
  update_masks();
}

void DnsPruner::update_masks() {
  for (nn::Parameter* p : pruned_params_) {
    const float alpha = magnitude_threshold(p->value(), current_target_);
    const float beta = alpha * static_cast<float>(1.0 + config_.hysteresis);
    const Index n = p->value().numel();
    // Mask rewritten in place; edit() bumps the version so packed-weight
    // panels built from the old effective weights are dropped
    // (nn/packed_weights.h).
    p->edit([&](const Tensor& value, Tensor& mask) {
      const float* w = value.data();
      float* m = mask.data();
      for (Index i = 0; i < n; ++i) {
        const float mag = std::fabs(w[i]);
        if (mag < alpha) {
          m[i] = 0.0f;  // prune (Eq. 3 first branch)
        } else if (mag > beta) {
          // restore (Eq. 3 third branch) — unless one-shot mode forbids it
          if (config_.allow_recovery || m[i] != 0.0f) m[i] = 1.0f;
        }
        // in the hysteresis band [α, β] the mask keeps its previous state
      }
    });
  }
}

double DnsPruner::density() const {
  Index total = 0, nonzero = 0;
  for (const nn::Parameter* p : pruned_params_) {
    total += p->mask().numel();
    for (float m : p->mask().flat()) {
      if (m != 0.0f) ++nonzero;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(nonzero) / static_cast<double>(total);
}

void DnsPruner::set_target_density(double d) {
  if (d <= 0.0 || d > 1.0) {
    throw std::invalid_argument("target_density must be in (0, 1]");
  }
  config_.target_density = d;
  current_target_ = d;
}

nn::PostStepHook DnsPruner::hook() {
  return [this](const nn::StepContext& ctx) {
    if (config_.mask_update_every <= 0 ||
        ctx.global_step % config_.mask_update_every != 0) {
      return;
    }
    if (config_.anneal_steps > 0 && ctx.global_step < config_.anneal_steps) {
      // Geometric interpolation 1.0 -> target: equal relative cuts per
      // update, so early steps remove little and the network adapts.
      const double frac = static_cast<double>(ctx.global_step) /
                          static_cast<double>(config_.anneal_steps);
      current_target_ = std::pow(config_.target_density, frac);
    } else {
      current_target_ = config_.target_density;
    }
    update_masks();
  };
}

nn::Sequential prune_to_density(const nn::Sequential& model, double density,
                                double hysteresis) {
  nn::Sequential pruned = model.clone();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-d%.2f", density);
  pruned.set_name(model.name() + buf);
  DnsPruner pruner(pruned,
                   DnsConfig{.target_density = density,
                             .hysteresis = hysteresis});
  return pruned;
}

}  // namespace con::compress
