#include "nn/parameter.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::nn {

void Parameter::set_value(Tensor value) {
  check_shapes(value, mask_);
  value_ = std::move(value);
  bump_version();
}

void Parameter::set_mask(Tensor mask) {
  check_shapes(value_, mask);
  mask_ = std::move(mask);
  bump_version();
}

void Parameter::set_transform(
    std::shared_ptr<const WeightTransform> transform) {
  transform_ = std::move(transform);
  bump_version();
}

void Parameter::check_shapes(const Tensor& value, const Tensor& mask) const {
  if (!mask.empty() && mask.shape() != value.shape()) {
    throw std::invalid_argument("parameter " + name + ": mask shape " +
                                mask.shape().to_string() +
                                " != value shape " +
                                value.shape().to_string());
  }
}

Tensor Parameter::effective(Tensor& gate_out) const {
  Tensor eff = value_;
  if (has_mask()) tensor::mul_inplace(eff, mask_);
  if (transform_) {
    Tensor out(eff.shape());
    gate_out = Tensor(eff.shape());
    transform_->apply(eff, out, gate_out);
    return out;
  }
  gate_out = Tensor();
  return eff;
}

}  // namespace con::nn
