// Fine-grained weight pruning.
//
// Implements dynamic network surgery (Guo et al. 2016), the scheme the
// paper uses to generate its pruned models: masks are recomputed during
// fine-tuning from weight magnitudes with a hysteresis band (Eq. 3), and
// pruned weights keep receiving gradient so they can re-join. A one-shot
// mode (mask can only shrink, Han et al. 2016 style) is provided as the
// ablation baseline.
#pragma once

#include <vector>

#include "nn/sequential.h"
#include "nn/trainer.h"

namespace con::compress {

struct DnsConfig {
  // Target fraction of non-zero weights (the paper's x-axis in Fig. 2).
  double target_density = 0.5;
  // Hysteresis half-width: prune below α, restore above β = α·(1+h);
  // weights in [α, β] keep their previous mask state (Eq. 3).
  double hysteresis = 0.1;
  // Recompute masks every this many optimizer steps during fine-tuning.
  int mask_update_every = 4;
  // false = one-shot pruning: once masked, a weight never recovers.
  bool allow_recovery = true;
  // When > 0, the density target is annealed geometrically from 1.0 to
  // target_density over the first `anneal_steps` optimizer steps (via
  // hook()); the initial mask is all-ones. Cutting straight to an extreme
  // sparsity collapses momentum-SGD fine-tuning; gradual sparsification is
  // how DNS-style pruning runs in practice.
  int anneal_steps = 0;
};

class DnsPruner {
 public:
  // Attaches all-ones masks to every compressible parameter of `model` and
  // performs an initial mask update at the target density.
  DnsPruner(nn::Sequential& model, DnsConfig config);

  // Recompute masks from current weight magnitudes. Per-parameter (i.e.
  // per-layer) thresholds: α is the (1 - density)-quantile of |w| within
  // each weight tensor.
  void update_masks();

  // Current global density over compressible parameters.
  double density() const;

  const DnsConfig& config() const { return config_; }
  void set_target_density(double d);

  // Hook for nn::train_classifier: refreshes masks every
  // config.mask_update_every steps, annealing the density target when
  // config.anneal_steps > 0.
  nn::PostStepHook hook();

 private:
  nn::Sequential* model_;
  DnsConfig config_;
  // The density update_masks() currently aims for; equals the configured
  // target except while annealing.
  double current_target_;
  std::vector<nn::Parameter*> pruned_params_;
};

// Convenience: magnitude-prune a model copy to `density` (masks attached,
// single mask update, no fine-tuning).
nn::Sequential prune_to_density(const nn::Sequential& model, double density,
                                double hysteresis = 0.1);

}  // namespace con::compress
