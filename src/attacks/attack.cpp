#include "attacks/attack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "util/threadpool.h"

namespace con::attacks {

using tensor::Index;

namespace {

// Range dispatch: attack rows [lo, hi), writing the adversarial rows
// straight into `result`. No intermediate chunk tensors.
void run_attack_range(AttackKind kind, const nn::Sequential& model,
                      const Tensor& images, Index lo, Index hi,
                      const std::vector<int>& labels,
                      const AttackParams& params, int num_classes,
                      Tensor& result) {
  switch (kind) {
    case AttackKind::kIfgm:
    case AttackKind::kIfgsm:
      fast_gradient_range(model, images, lo, hi, labels, params,
                          kind == AttackKind::kIfgm
                              ? FastGradientRule::kGradient
                              : FastGradientRule::kSign,
                          result);
      return;
    case AttackKind::kDeepFool:
      deepfool_range(model, images, lo, hi, labels, params, num_classes,
                     result, /*iterations_used=*/nullptr,
                     /*perturbation_l2=*/nullptr);
      return;
  }
  throw std::logic_error("unreachable attack kind");
}

}  // namespace

Tensor run_attack_batched(AttackKind kind, const nn::Sequential& model,
                          const Tensor& images, const std::vector<int>& labels,
                          const AttackParams& params, int num_classes) {
  if (images.rank() < 2) {
    throw std::invalid_argument("run_attack_batched: images must be batched");
  }
  if (static_cast<std::size_t>(images.dim(0)) != labels.size()) {
    throw std::invalid_argument(
        "run_attack_batched: image/label count mismatch");
  }
  const Index n = images.dim(0);
  const std::size_t num_chunks =
      static_cast<std::size_t>((n + kAttackChunk - 1) / kAttackChunk);

  Tensor result(images.shape());
  obs::Span batch_span(attack_name(kind), "batched");
  static obs::Counter& chunks = obs::counter("attack.chunks");
  static obs::Distribution& chunk_time = obs::dist("attack.chunk_ns");
  util::parallel_for(0, num_chunks, [&](std::size_t c) {
    const Index lo = static_cast<Index>(c) * kAttackChunk;
    const Index hi = std::min(lo + kAttackChunk, n);
    obs::Span chunk_span(attack_name(kind), "chunk");
    obs::ScopedTimer chunk_timer(chunk_time);
    chunks.add(1);
    // Each chunk reads its own rows of `images` and owns its own rows of
    // `result`; no cross-chunk writes, no chunk copies.
    run_attack_range(kind, model, images, lo, hi, labels, params, num_classes,
                     result);
  });
  return result;
}

PerturbationStats perturbation_stats(const Tensor& clean,
                                     const Tensor& adversarial) {
  if (clean.shape() != adversarial.shape()) {
    throw std::invalid_argument("perturbation_stats: shape mismatch");
  }
  if (clean.rank() < 1 || clean.dim(0) == 0) {
    throw std::invalid_argument("perturbation_stats: empty batch");
  }
  const Index n = clean.dim(0);
  const Index per_sample = clean.numel() / n;
  const float* c = clean.data();
  const float* a = adversarial.data();
  PerturbationStats stats;
  for (Index s = 0; s < n; ++s) {
    double l2 = 0.0, linf = 0.0;
    Index changed = 0;
    for (Index i = s * per_sample; i < (s + 1) * per_sample; ++i) {
      const double d = static_cast<double>(a[i]) - c[i];
      l2 += d * d;
      linf = std::max(linf, std::fabs(d));
      if (d != 0.0) ++changed;
    }
    stats.mean_l2 += std::sqrt(l2);
    stats.mean_linf += linf;
    stats.mean_l0_fraction +=
        static_cast<double>(changed) / static_cast<double>(per_sample);
  }
  stats.mean_l2 /= static_cast<double>(n);
  stats.mean_linf /= static_cast<double>(n);
  stats.mean_l0_fraction /= static_cast<double>(n);
  return stats;
}

}  // namespace con::attacks
