#include "tensor/random.h"

#include <cmath>
#include <stdexcept>

namespace con::tensor {

void fill_normal(Tensor& t, con::util::Rng& rng, float mean, float stddev) {
  for (float& v : t.flat()) v = rng.normal_f(mean, stddev);
}

void fill_uniform(Tensor& t, con::util::Rng& rng, float lo, float hi) {
  for (float& v : t.flat()) v = rng.uniform_f(lo, hi);
}

void fill_kaiming_normal(Tensor& t, con::util::Rng& rng, Index fan_in) {
  if (fan_in <= 0) throw std::invalid_argument("fan_in must be positive");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  fill_normal(t, rng, 0.0f, stddev);
}

}  // namespace con::tensor
