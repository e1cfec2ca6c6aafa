#include "data/dataset.h"

#include <stdexcept>
#include <utility>

#include "tensor/ops.h"

namespace con::data {

int Dataset::num_classes() const { return classes; }

Dataset Dataset::take(Index n) const {
  if (n < 0 || n > size()) {
    throw std::out_of_range("Dataset::take: n out of range");
  }
  std::vector<Index> dims = images.shape().dims();
  dims[0] = n;
  Dataset out;
  out.images = Tensor{tensor::Shape{std::move(dims)}};
  for (Index i = 0; i < n; ++i) {
    tensor::set_batch(out.images, i, tensor::slice_batch(images, i));
  }
  out.labels.assign(labels.begin(), labels.begin() + n);
  out.classes = classes;
  return out;
}

void validate_dataset(const Dataset& ds, int expected_classes) {
  if (ds.images.rank() != 4) {
    throw std::logic_error("dataset images must be [N, C, H, W]");
  }
  if (static_cast<std::size_t>(ds.images.dim(0)) != ds.labels.size()) {
    throw std::logic_error("dataset image/label count mismatch");
  }
  for (int y : ds.labels) {
    if (y < 0 || y >= expected_classes) {
      throw std::logic_error("dataset label out of range");
    }
  }
  const float lo = tensor::min_value(ds.images);
  const float hi = tensor::max_value(ds.images);
  if (lo < 0.0f || hi > 1.0f) {
    throw std::logic_error("dataset pixels must lie in [0, 1]");
  }
}

}  // namespace con::data
