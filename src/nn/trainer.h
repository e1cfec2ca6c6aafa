// Mini-batch SGD training loop with the paper's LR schedule and a post-step
// hook used by the compression library (mask updates for dynamic network
// surgery happen between optimizer steps).
#pragma once

#include <functional>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace con::nn {

struct TrainConfig {
  int epochs = 10;
  int batch_size = 32;
  float base_lr = 0.01f;  // paper: schedules start from 0.01
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  std::uint64_t shuffle_seed = 0x7ea1ULL;
  bool use_paper_lr_schedule = true;
};

struct TrainStats {
  std::vector<float> epoch_losses;   // mean loss per epoch
  int steps = 0;
};

struct StepContext {
  int epoch = 0;
  int step_in_epoch = 0;
  int global_step = 0;
  float loss = 0.0f;
};

using PostStepHook = std::function<void(const StepContext&)>;

// Trains `model` on (images [N,...], labels) for config.epochs.
TrainStats train_classifier(Sequential& model, const Tensor& images,
                            const std::vector<int>& labels,
                            const TrainConfig& config,
                            const PostStepHook& post_step = {});

// Top-1 accuracy of `model` on (images, labels), evaluated in eval mode.
// Batches are evaluated in parallel over the global thread pool; results
// are written to per-sample slots, so the value is thread-count invariant.
double evaluate_accuracy(const Sequential& model, const Tensor& images,
                         const std::vector<int>& labels, int batch_size = 64);

// Per-sample predicted classes (parallel over batches, deterministic).
std::vector<int> predict(const Sequential& model, const Tensor& images,
                         int batch_size = 64);

// Mean cross-entropy loss on a dataset, eval mode (parallel over batches;
// partial sums are reduced in fixed batch order, so the value is
// thread-count invariant).
double evaluate_loss(const Sequential& model, const Tensor& images,
                     const std::vector<int>& labels, int batch_size = 64);

}  // namespace con::nn
