#include "core/feature_space.h"

#include <cmath>
#include <map>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace con::core {

using tensor::Index;
using tensor::Tensor;

namespace {

// Column-centre a matrix in place.
void center_columns(Tensor& m) {
  const Index rows = m.dim(0), cols = m.dim(1);
  for (Index c = 0; c < cols; ++c) {
    double mean = 0.0;
    for (Index r = 0; r < rows; ++r) mean += m[r * cols + c];
    mean /= static_cast<double>(rows);
    for (Index r = 0; r < rows; ++r) {
      m[r * cols + c] -= static_cast<float>(mean);
    }
  }
}

// Squared Frobenius norm of X^T Y, computed through the n x n Gram matrices
// so cost stays O(n^2 (p + q)) with small n (probe batches are small).
double hsic_linear(const Tensor& gram_x, const Tensor& gram_y) {
  double acc = 0.0;
  for (Index i = 0; i < gram_x.numel(); ++i) {
    acc += static_cast<double>(gram_x[i]) * gram_y[i];
  }
  return acc;
}

}  // namespace

double linear_cka(const Tensor& x, const Tensor& y) {
  if (x.rank() != 2 || y.rank() != 2 || x.dim(0) != y.dim(0)) {
    throw std::invalid_argument(
        "linear_cka: expected [n, p] and [n, q] with matching n");
  }
  if (x.dim(0) < 2) {
    throw std::invalid_argument("linear_cka: need at least 2 samples");
  }
  Tensor xc = x;
  Tensor yc = y;
  center_columns(xc);
  center_columns(yc);
  // Gram matrices K = Xc Xc^T, L = Yc Yc^T.
  Tensor k = tensor::gemm::matmul_nt(xc, xc);
  Tensor l = tensor::gemm::matmul_nt(yc, yc);
  const double cross = hsic_linear(k, l);
  const double kk = hsic_linear(k, k);
  const double ll = hsic_linear(l, l);
  if (kk < 1e-12 || ll < 1e-12) return 0.0;
  return cross / std::sqrt(kk * ll);
}

std::vector<LayerSimilarity> feature_space_similarity(
    const nn::Sequential& reference, const nn::Sequential& other, const Tensor& batch) {
  // Collect activations by layer name in both models (quantisation passes
  // insert extra layers, so positions do not line up — names do).
  auto collect = [&](const nn::Sequential& m) {
    std::map<std::string, Tensor> acts;
    nn::ForwardTape tape(/*accumulate_param_grads=*/false);
    Tensor h = batch;
    for (std::size_t i = 0; i < m.num_layers(); ++i) {
      h = m.layer(i).forward(h, /*train=*/false, tape.slot(i));
      const Index n = h.dim(0);
      acts[m.layer(i).name()] = h.reshaped({n, h.numel() / n});
    }
    return acts;
  };
  std::map<std::string, Tensor> ref_acts = collect(reference);
  std::map<std::string, Tensor> other_acts = collect(other);

  std::vector<LayerSimilarity> result;
  for (std::size_t i = 0; i < reference.num_layers(); ++i) {
    const std::string& name = reference.layer(i).name();
    auto it = other_acts.find(name);
    if (it == other_acts.end()) continue;
    result.push_back(LayerSimilarity{
        .layer_index = i,
        .layer_name = name,
        .cka = linear_cka(ref_acts.at(name), it->second)});
  }
  return result;
}

double mean_feature_similarity(const nn::Sequential& reference,
                               const nn::Sequential& other, const Tensor& batch) {
  const auto sims = feature_space_similarity(reference, other, batch);
  if (sims.empty()) {
    throw std::invalid_argument(
        "mean_feature_similarity: no layers matched by name");
  }
  double acc = 0.0;
  for (const LayerSimilarity& s : sims) acc += s.cka;
  return acc / static_cast<double>(sims.size());
}

}  // namespace con::core
