// Fast-gradient attack family (Goodfellow et al. 2015; iterative versions
// after Kurakin et al. 2016, Algorithm 1 of the paper).
//
// All attacks operate in pixel space: adversarial images are clamped to the
// valid [0, 1] domain, and each iteration's result is clipped to an L∞ ball
// of radius ε around the previous iterate ("the intermediate results get
// clipped to ensure that the resulting adversarial images lie within ε of
// the previous iteration", §3.3).
//
// The iterative loop is allocation-free in steady state: the iterate is
// updated in place (the ε-ball clip reads prev[i] before writing x[i], so
// aliasing is safe), the forward/backward tape is hoisted out of the loop
// and recycles its slot storage, and the last iteration writes directly
// into the caller's output rows.
#pragma once

#include <vector>

#include "attacks/params.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace con::attacks {

using tensor::Tensor;

// N in Algorithm 1: step along sign(∇ₓJ) (FGSM) or ∇ₓJ itself (FGM).
enum class FastGradientRule { kGradient, kSign };

// Attack rows [lo, hi) of `images`, writing adversarial rows straight into
// the same rows of `out_adversarial` (same shape as `images`). This is the
// non-copying entry the chunked attack driver uses: chunks read and write
// through row views of the shared batch, never through intermediate chunk
// tensors. Labels are indexed absolutely. iterations = 1 is single-step
// FGM/FGSM.
//
// The loss gradient arrives scaled by 1/n (the batch mean over the range's
// n = hi - lo rows) and is rescaled by n, so each row steps along its own
// un-averaged loss gradient. (g / n) * n is float-exact only when n is a
// power of two: rows of a full kAttackChunk range match a per-sample
// attack bit for bit, but a range of any other size (the chunked driver's
// tail chunk) carries the rounding of its n. The sign step of IFGSM hides
// that rounding; IFGM's gradient step does not. A row's result therefore
// depends on the size of the range it was attacked in, which is why
// run_attack_batched fixes the ranges from the batch size alone.
void fast_gradient_range(const nn::Sequential& model, const Tensor& images,
                         tensor::Index lo, tensor::Index hi,
                         const std::vector<int>& labels,
                         const AttackParams& params, FastGradientRule rule,
                         Tensor& out_adversarial);

}  // namespace con::attacks
