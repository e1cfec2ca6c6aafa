// Unified attack dispatch — the entry point used by the transfer-study
// harness and the benches.
#pragma once

#include "attacks/deepfool.h"
#include "attacks/fast_gradient.h"
#include "attacks/params.h"

namespace con::attacks {

// Chunk size used by run_attack_batched. A power of two, so the batch-mean
// gradient rescale (g / N) * N is float-exact on every full chunk; only the
// tail chunk (N mod kAttackChunk rows) carries the rounding of its own size
// (see fast_gradient_range).
inline constexpr tensor::Index kAttackChunk = 32;

// Generate adversarial samples for `images` against `model` (white-box:
// gradients are taken from `model` itself). Splits the batch into fixed
// chunks of kAttackChunk samples and generates them in parallel over the
// global thread pool. Chunks are dispatched through the attacks' *_range
// entry points: each chunk reads its rows of `images` and writes its rows
// of the result directly, with no intermediate chunk tensors or copies. The
// chunk boundaries depend only on the batch size — never on the thread
// count — and every chunk writes into its own slice of the result, so the
// output is identical for any --threads value (including 1).
Tensor run_attack_batched(AttackKind kind, const nn::Sequential& model,
                          const Tensor& images, const std::vector<int>& labels,
                          const AttackParams& params, int num_classes = 10);

// Perturbation statistics, used to sanity-check attack strength the way the
// paper does ("perturbations of a sensible l2 and l0").
struct PerturbationStats {
  double mean_l2 = 0.0;
  double mean_linf = 0.0;
  double mean_l0_fraction = 0.0;  // fraction of changed pixels
};

PerturbationStats perturbation_stats(const Tensor& clean,
                                     const Tensor& adversarial);

}  // namespace con::attacks
