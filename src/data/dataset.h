// In-memory labelled image dataset used across the study.
//
// Images are NCHW float tensors with values in [0, 1] — the domain the
// attacks clip adversarial samples to, matching the paper's pixel-space
// epsilon-ball setup.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace con::data {

using tensor::Index;
using tensor::Tensor;

struct Dataset {
  Tensor images;            // [N, C, H, W], values in [0, 1]
  std::vector<int> labels;  // N class ids in [0, classes)
  int classes = 0;          // the generator's declared class count

  Index size() const { return images.empty() ? 0 : images.dim(0); }
  // The declared class count — what a classifier trained on the generator
  // has logits for — not the largest label present: a subset that lacks
  // the top class keeps it.
  int num_classes() const;

  // First `n` samples as a new dataset (used to carve attack subsets).
  Dataset take(Index n) const;
};

struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

// Validates invariants (shape/label agreement, pixel range); throws on
// violation. Called by dataset generators before returning.
void validate_dataset(const Dataset& ds, int expected_classes);

}  // namespace con::data
