// Random tensor initializers.
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

namespace con::tensor {

// Fill with N(mean, stddev).
void fill_normal(Tensor& t, con::util::Rng& rng, float mean, float stddev);

// Fill with U[lo, hi).
void fill_uniform(Tensor& t, con::util::Rng& rng, float lo, float hi);

// Kaiming/He normal initialization for layers followed by ReLU:
// stddev = sqrt(2 / fan_in).
void fill_kaiming_normal(Tensor& t, con::util::Rng& rng, Index fan_in);

}  // namespace con::tensor
