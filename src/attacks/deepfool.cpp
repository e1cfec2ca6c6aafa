#include "attacks/deepfool.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "attacks/gradient.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace con::attacks {

using tensor::Index;

namespace {

void check_inputs(const Tensor& images, const std::vector<int>& labels,
                  const AttackParams& params) {
  if (images.rank() < 2) {
    throw std::invalid_argument("deepfool: images must be batched");
  }
  if (static_cast<std::size_t>(images.dim(0)) != labels.size()) {
    throw std::invalid_argument("deepfool: image/label count mismatch");
  }
  if (params.iterations <= 0) {
    throw std::invalid_argument("deepfool: iterations must be > 0");
  }
}

}  // namespace

void deepfool_range(const nn::Sequential& model, const Tensor& images,
                    Index lo, Index hi, const std::vector<int>& labels,
                    const AttackParams& params, int num_classes,
                    Tensor& out_adversarial, int* iterations_used,
                    float* perturbation_l2) {
  check_inputs(images, labels, params);
  if (lo < 0 || hi > images.dim(0) || lo > hi) {
    throw std::out_of_range("deepfool_range: bad row range");
  }
  if (out_adversarial.shape() != images.shape()) {
    throw std::invalid_argument("deepfool_range: output shape mismatch");
  }
  const Index per_sample = images.numel() / images.dim(0);
  const float overshoot = params.epsilon;

  // Live batch state: x0/r row j belongs to original batch row rows[j].
  // Compaction shrinks all three together; storage is retained throughout
  // (shrink_rows never reallocates), so after the first iteration the loop
  // allocates only what forward/backward themselves produce.
  Tensor x0 = tensor::copy_rows(images, lo, hi);
  Tensor r(x0.shape());
  std::vector<Index> rows(static_cast<std::size_t>(hi - lo));
  for (std::size_t j = 0; j < rows.size(); ++j) {
    rows[j] = lo + static_cast<Index>(j);
  }

  // Finalise live row j after `iters` boundary steps: apply the overshoot,
  // clamp to the pixel domain and write through to the caller's rows. The
  // element sequence mirrors the reference epilogue (add_scaled, clamp,
  // l2_norm∘sub) exactly.
  auto finalise = [&](std::size_t j, int iters) {
    const Index row = rows[j];
    const float* x0p = x0.data() + static_cast<Index>(j) * per_sample;
    const float* rp = r.data() + static_cast<Index>(j) * per_sample;
    float* out = out_adversarial.data() + row * per_sample;
    double acc = 0.0;
    for (Index i = 0; i < per_sample; ++i) {
      float v = x0p[i] + (1.0f + overshoot) * rp[i];
      v = std::min(1.0f, std::max(0.0f, v));
      out[i] = v;
      const float d = v - x0p[i];
      acc += static_cast<double>(d) * d;
    }
    if (iterations_used) iterations_used[row] = iters;
    if (perturbation_l2) {
      perturbation_l2[row] = static_cast<float>(std::sqrt(acc));
    }
  };

  // Compact x0/r/rows down to the rows listed in keep (strictly ascending
  // positions into the current live set).
  auto compact_live = [&](const std::vector<Index>& keep) {
    tensor::compact_rows_inplace(x0, keep);
    tensor::compact_rows_inplace(r, keep);
    for (std::size_t j = 0; j < keep.size(); ++j) {
      rows[j] = rows[static_cast<std::size_t>(keep[j])];
    }
    rows.resize(keep.size());
  };

  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  Tensor xi;    // current iterate, storage reused across iterations
  Tensor seed;  // [B, K] backward seed, reused across classes/iterations
  std::vector<Tensor> grads(static_cast<std::size_t>(num_classes));
  std::vector<Index> keep;  // survivor positions in the forward batch
  std::vector<Index> keep2;

  static obs::Counter& iters = obs::counter("attack.deepfool.iterations");
  // Integer observations: every field, buckets included, is identical for
  // any --threads value, so the active-set decay curve compares across
  // thread counts.
  static obs::Distribution& active =
      obs::dist("attack.deepfool.active_rows");
  int it = 0;
  while (!rows.empty() && it < params.iterations) {
    iters.add(1);
    active.record(static_cast<double>(rows.size()));
    // x_i = x0 + (1 + η) r, clamped — the iterate carries the overshoot,
    // as in the reference implementation.
    tensor::add_scaled_into(xi, x0, r, 1.0f + overshoot);
    tensor::clamp_inplace(xi, 0.0f, 1.0f);
    Tensor logits = model.forward(xi, /*train=*/false, tape);
    if (logits.dim(1) != num_classes) {
      throw std::invalid_argument("deepfool: class count mismatch");
    }

    // Prediction check straight after the forward, BEFORE any backward:
    // rows that are already fooled never use their class gradients, so
    // (unlike the per-sample reference, which always runs a full
    // linearisation round and discards it on the break) the batched path
    // drops them here and spends the K backwards on survivors only.
    const Index fwd_rows = static_cast<Index>(rows.size());
    keep.clear();
    {
      const float* ld = logits.data();
      for (std::size_t j = 0; j < rows.size(); ++j) {
        const float* lrow = ld + static_cast<Index>(j) * num_classes;
        int pred = 0;
        for (int k = 1; k < num_classes; ++k) {
          if (lrow[k] > lrow[pred]) pred = k;
        }
        if (pred != labels[static_cast<std::size_t>(rows[j])]) {
          finalise(j, it);
        } else {
          keep.push_back(static_cast<Index>(j));
        }
      }
    }
    if (keep.empty()) break;
    const Index dropped = fwd_rows - static_cast<Index>(keep.size());
    if (dropped > 0) compact_live(keep);

    // The tape still describes the pre-drop batch. When few rows dropped,
    // backward through the stale rows is cheaper than refreshing the tape;
    // when many dropped, one forward over the compacted batch is cheaper
    // than K backwards over dead rows. Break-even: a backward costs about
    // 0.6× a forward per row, so re-forward when dropped·K·0.6 exceeds the
    // survivor count. The choice depends only on batch composition, never
    // on the thread count, so results are deterministic and
    // thread-count invariant. The two branches are not bit-neutral on
    // every table: on the scalar one a survivor's gradient is the same
    // either way, but the AVX2 tile splits its terms into even/odd chains
    // by position in the shorter skip list, and an A strip's list is the
    // union over its 4 rows, so a row's bits can depend on which rows
    // share its strip (the stale rows here, or none after the re-forward).
    bool refreshed = false;
    if (dropped > 0 &&
        3 * dropped * num_classes >= 5 * static_cast<Index>(keep.size())) {
      tensor::add_scaled_into(xi, x0, r, 1.0f + overshoot);
      tensor::clamp_inplace(xi, 0.0f, 1.0f);
      logits = model.forward(xi, /*train=*/false, tape);
      refreshed = true;
    }
    // Positions of live row j inside the forward batch / gradient rows.
    const bool compacted_fwd = refreshed || dropped == 0;
    const Index b = compacted_fwd ? static_cast<Index>(rows.size()) : fwd_rows;

    // K batched backwards against the one forward tape: one-hot column k
    // seeds ∇ₓf_k for every row at once. The seed tensor is reused: each
    // pass clears the previous column before setting its own.
    if (seed.shape() != logits.shape()) seed.resize(logits.shape());
    float* sd = seed.data();
    for (int k = 0; k < num_classes; ++k) {
      for (Index j = 0; j < b; ++j) {
        if (k > 0) sd[j * num_classes + (k - 1)] = 0.0f;
        sd[j * num_classes + k] = 1.0f;
      }
      grads[static_cast<std::size_t>(k)] = model.backward(seed, tape);
    }
    for (Index j = 0; j < b; ++j) {
      sd[j * num_classes + (num_classes - 1)] = 0.0f;
    }

    keep2.clear();
    const float* ld = logits.data();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      // Row j of the live set sits at row `pos` of the forward batch (they
      // differ only when fooled rows were dropped without a re-forward).
      const Index pos =
          compacted_fwd ? static_cast<Index>(j)
                        : keep[j];
      const int y = labels[static_cast<std::size_t>(rows[j])];
      const float* lrow = ld + pos * num_classes;

      // Nearest linearised boundary among all wrong classes. Same scalar
      // sequence as the reference: float logit differences, double-
      // accumulated row norms, strict-< tie-break on ascending k.
      const float* gy =
          grads[static_cast<std::size_t>(y)].data() + pos * per_sample;
      float best_dist = std::numeric_limits<float>::infinity();
      float best_f = 0.0f;
      float best_wnorm2 = 0.0f;
      int best_k = -1;
      for (int k = 0; k < num_classes; ++k) {
        if (k == y) continue;
        const float* gk =
            grads[static_cast<std::size_t>(k)].data() + pos * per_sample;
        double acc = 0.0;
        for (Index i = 0; i < per_sample; ++i) {
          const float w = gk[i] - gy[i];
          acc += static_cast<double>(w) * w;
        }
        const float wnorm = static_cast<float>(std::sqrt(acc));
        if (wnorm < 1e-12f) continue;
        const float f_k = lrow[k] - lrow[y];
        const float dist = std::fabs(f_k) / wnorm;
        if (dist < best_dist) {
          best_dist = dist;
          best_f = f_k;
          best_wnorm2 = wnorm * wnorm;
          best_k = k;
        }
      }
      if (best_k < 0) {  // degenerate gradients; give up on this row
        finalise(j, it);
        continue;
      }

      // r_j += (|f| / ‖w‖²) · w, with a tiny floor so progress never
      // stalls. w is recomputed elementwise — float arithmetic is
      // deterministic, so this matches materialising it.
      const float coeff = (std::fabs(best_f) + 1e-4f) / best_wnorm2;
      const float* gk =
          grads[static_cast<std::size_t>(best_k)].data() + pos * per_sample;
      float* rp = r.data() + static_cast<Index>(j) * per_sample;
      for (Index i = 0; i < per_sample; ++i) {
        rp[i] += coeff * (gk[i] - gy[i]);
      }
      keep2.push_back(static_cast<Index>(j));
    }
    ++it;

    if (keep2.size() != rows.size()) compact_live(keep2);
  }
  // Rows that survived every iteration exhaust the budget, exactly like the
  // reference loop falling out of its for.
  for (std::size_t j = 0; j < rows.size(); ++j) finalise(j, it);
}

DeepFoolResult deepfool(const nn::Sequential& model, const Tensor& images,
                        const std::vector<int>& labels,
                        const AttackParams& params, int num_classes) {
  check_inputs(images, labels, params);
  const Index n = images.dim(0);
  DeepFoolResult result;
  result.adversarial = Tensor(images.shape());
  result.iterations_used.resize(static_cast<std::size_t>(n), 0);
  result.perturbation_l2.resize(static_cast<std::size_t>(n), 0.0f);
  deepfool_range(model, images, 0, n, labels, params, num_classes,
                 result.adversarial, result.iterations_used.data(),
                 result.perturbation_l2.data());
  return result;
}

}  // namespace con::attacks
