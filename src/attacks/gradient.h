// Input-gradient computation shared by all white-box attacks.
//
// All helpers run eval-mode forwards with parameter-gradient accumulation
// disabled on the tape, so they are const over the model and safe to call
// concurrently from many threads on one shared model.
#pragma once

#include <vector>

#include "nn/sequential.h"
#include "nn/tape.h"
#include "tensor/tensor.h"

namespace con::attacks {

using tensor::Tensor;

// ∇ₓ J(θ, X, y) for a batch X [N,...] with true labels y: forward in eval
// mode, softmax-cross-entropy, backward to the input. Parameter gradients
// are never touched — attacks must not perturb training state.
Tensor loss_input_gradient(const nn::Sequential& model, const Tensor& batch,
                           const std::vector<int>& labels);

// Tape-reusing variant for iterative loops: the caller owns `tape` (built
// with accumulate_param_grads=false) and passes it every iteration, so the
// slot storage warmed by the first pass is recycled by every later one and
// the loop's steady state stops allocating per-layer state.
Tensor loss_input_gradient(const nn::Sequential& model, const Tensor& batch,
                           const std::vector<int>& labels,
                           nn::ForwardTape& tape);

}  // namespace con::attacks
