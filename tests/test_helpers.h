// Shared helpers for the test suite: numerical gradient checking, small
// model/dataset builders, cold store roots and the list of kernel tables to
// check.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace con::testing {

using tensor::Index;
using tensor::Tensor;

// A guaranteed-cold store root: /tmp survives across test-binary runs, so
// scrub any leftover state (and pid-suffix against concurrent runners).
inline std::string fresh_store_dir(const std::string& stem) {
  static std::atomic<int> serial{0};
  const std::string dir = ::testing::TempDir() + "/con_store_" + stem + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(serial.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

// Central-difference numerical gradient of `f` w.r.t. `x`.
inline Tensor numerical_gradient(const std::function<double(const Tensor&)>& f,
                                 const Tensor& x, double h = 1e-3) {
  Tensor grad(x.shape());
  Tensor probe = x;
  for (Index i = 0; i < x.numel(); ++i) {
    const float orig = probe[i];
    probe[i] = orig + static_cast<float>(h);
    const double fp = f(probe);
    probe[i] = orig - static_cast<float>(h);
    const double fm = f(probe);
    probe[i] = orig;
    grad[i] = static_cast<float>((fp - fm) / (2.0 * h));
  }
  return grad;
}

// Max relative error between two gradients, with an absolute floor so
// near-zero entries do not blow up the ratio.
inline double max_gradient_error(const Tensor& analytic,
                                 const Tensor& numeric) {
  double worst = 0.0;
  for (Index i = 0; i < analytic.numel(); ++i) {
    const double a = analytic[i];
    const double n = numeric[i];
    const double denom = std::max({std::fabs(a), std::fabs(n), 1e-2});
    worst = std::max(worst, std::fabs(a - n) / denom);
  }
  return worst;
}

// Quantile of coordinate-wise relative gradient errors. On *trained*
// piecewise-linear nets (ReLU + maxpool), finite differences cross kinks at
// a handful of coordinates where the numerical gradient is meaningless, so
// trained-model checks assert on a high quantile instead of the max.
inline double gradient_error_quantile(const Tensor& analytic,
                                      const Tensor& numeric, double q) {
  std::vector<double> errs;
  errs.reserve(static_cast<std::size_t>(analytic.numel()));
  for (Index i = 0; i < analytic.numel(); ++i) {
    const double a = analytic[i];
    const double n = numeric[i];
    const double denom = std::max({std::fabs(a), std::fabs(n), 1e-2});
    errs.push_back(std::fabs(a - n) / denom);
  }
  std::sort(errs.begin(), errs.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(errs.size() - 1));
  return errs[idx];
}

// Loss of `model` on (x, labels) as a plain function of x — the scalar that
// attacks differentiate.
inline double model_loss(nn::Sequential& model, const Tensor& x,
                         const std::vector<int>& labels) {
  Tensor logits = model.forward(x, /*train=*/false);
  return nn::softmax_cross_entropy(logits, labels).loss;
}

// A deterministic random batch in [0, 1].
inline Tensor random_batch(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t{std::move(shape)};
  for (float& v : t.flat()) v = rng.uniform_f(0.05f, 0.95f);
  return t;
}

// `out` followed by every SIMD kernel table this build and host can run —
// the tables the oracle suites check against scalar. Pass {Isa::kScalar}
// to get the full list, scalar first.
inline std::vector<tensor::kernels::Isa> simd_isas(
    std::vector<tensor::kernels::Isa> out = {}) {
  if (tensor::kernels::isa_supported(tensor::kernels::Isa::kAvx2)) {
    out.push_back(tensor::kernels::Isa::kAvx2);
  }
  return out;
}

}  // namespace con::testing
