// Per-sample DeepFool and the one-logit input gradient: the oracles the
// batched attack (attacks/deepfool.h) is checked against. No production
// path runs either.
#pragma once

#include <vector>

#include "attacks/deepfool.h"

namespace con::attacks {

// The original per-sample loop, byte-identical to deepfool(): a batch-of-1
// forward plus num_classes backwards per sample per iteration. Checks its
// inputs as deepfool() does.
DeepFoolResult deepfool_reference(const nn::Sequential& model,
                                  const Tensor& images,
                                  const std::vector<int>& labels,
                                  const AttackParams& params,
                                  int num_classes = 10);

// ∇ₓ f_k(X): gradient of logit k w.r.t. a single-sample batch [1,...].
Tensor logit_input_gradient(const nn::Sequential& model,
                            const Tensor& sample_batch, int class_index,
                            int num_classes);

}  // namespace con::attacks
