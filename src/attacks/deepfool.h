// DeepFool (Moosavi-Dezfooli et al. 2016), L2 variant as used in the paper.
//
// Iteratively linearises the classifier around the current iterate and
// steps to the nearest linearised decision boundary; the final perturbation
// is inflated by a small overshoot (the paper's Table 1 ε) to push the
// sample across the boundary. Unlike IFGSM it neither scales nor clips
// gradients, which is why the paper finds it produces the smallest — and
// under quantisation the most fragile — perturbations.
//
// deepfool() is a batched active-set attack. One forward per iteration
// over the set of not-yet-fooled samples, then num_classes batched
// backwards (a [B, K] seed with one-hot column k yields ∇ₓf_k for every row
// at once), per-row nearest-boundary selection, and live-set compaction so
// work stays proportional to surviving samples. Its outputs are
// byte-identical to the per-sample loop (batch-of-1 forward plus
// num_classes backwards per sample per iteration), which the tests and
// benches keep as attacks::deepfool_reference in tests/oracles. The
// identity rests on the GEMM contract (DESIGN.md §5): every batch row's dot
// products are computed exactly as in a batch-of-1, and all other layers
// are per-row maps in eval mode.
#pragma once

#include <vector>

#include "attacks/params.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace con::attacks {

using tensor::Tensor;

struct DeepFoolResult {
  Tensor adversarial;      // same shape as the input batch
  std::vector<int> iterations_used;  // per sample
  std::vector<float> perturbation_l2;  // per sample, ‖x_adv − x‖₂
};

// params.epsilon = overshoot factor, params.iterations = max iterations.
// Batched active-set implementation.
DeepFoolResult deepfool(const nn::Sequential& model, const Tensor& images,
                        const std::vector<int>& labels,
                        const AttackParams& params, int num_classes = 10);

// Attack rows [lo, hi) of `images`, writing adversarial rows straight into
// the same rows of `out_adversarial` (same shape as `images`) and, when
// non-null, per-sample metadata at absolute indices [lo, hi) of
// `iterations_used` / `perturbation_l2`. This is the non-copying entry the
// chunked attack driver uses: chunks read and write through row views of
// the shared batch, never through intermediate chunk tensors. Labels are
// indexed absolutely. Per-row results do not depend on the chunking.
void deepfool_range(const nn::Sequential& model, const Tensor& images,
                    tensor::Index lo, tensor::Index hi,
                    const std::vector<int>& labels, const AttackParams& params,
                    int num_classes, Tensor& out_adversarial,
                    int* iterations_used, float* perturbation_l2);

}  // namespace con::attacks
