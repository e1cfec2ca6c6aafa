// Feature-space similarity between a baseline and its compressed variants.
//
// Section 4.1 of the paper hypothesises that "pruning largely preserves the
// feature space of a baseline CNN, so adversarial samples remain
// transferable", echoing Tramèr et al.: similar feature spaces mean
// transferable samples. This module quantifies that hypothesis with linear
// CKA (centered kernel alignment) between per-layer activations of two
// models on the same probe batch — high CKA at matching depths means the
// compressed model kept the representation, and per the paper's argument,
// should predict high transferability.
#pragma once

#include <string>
#include <vector>

#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace con::core {

// Linear CKA between two activation matrices X [n, p] and Y [n, q]
// (rows = probe samples). Returns a value in [0, 1]; 1 = identical
// representational geometry up to linear transforms.
double linear_cka(const tensor::Tensor& x, const tensor::Tensor& y);

struct LayerSimilarity {
  std::size_t layer_index;
  std::string layer_name;
  double cka;
};

// CKA at every layer the two models share by name. Models must have the
// same architecture modulo inserted quantisation layers (layers are matched
// by name, not position).
std::vector<LayerSimilarity> feature_space_similarity(
    const nn::Sequential& reference, const nn::Sequential& other,
    const tensor::Tensor& batch);

// Mean CKA across matched layers — a scalar "how much of the feature space
// survived compression" number.
double mean_feature_similarity(const nn::Sequential& reference,
                               const nn::Sequential& other,
                               const tensor::Tensor& batch);

}  // namespace con::core
