// Dense float32 N-dimensional tensor with value semantics.
//
// The reproduction needs exactly one dtype (float32, as in the paper's
// uncompressed baseline) and contiguous row-major storage; quantised models
// are simulated with fake-quantisation in float (see src/compress/). Keeping
// the tensor simple — a shape plus a flat std::vector<float> — makes every
// operator easy to verify against a hand computation in tests.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace con::tensor {

using Index = std::int64_t;

// Shape of a tensor: an ordered list of dimension extents.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<Index> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<Index> dims) : dims_(std::move(dims)) {
    validate();
  }

  Index rank() const { return static_cast<Index>(dims_.size()); }
  Index dim(Index i) const;
  Index numel() const;
  const std::vector<Index>& dims() const { return dims_; }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const;

 private:
  void validate() const;
  std::vector<Index> dims_;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill_value);
  Tensor(Shape shape, std::vector<float> values);

  // Copies are counted (see buffer_allocations); moves steal storage and
  // count nothing. Copy-assignment into a tensor whose storage already has
  // room reuses it, which is what lets tape slots and iterative-attack
  // buffers reach an allocation-free steady state.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  ~Tensor() = default;

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }

  const Shape& shape() const { return shape_; }
  Index rank() const { return shape_.rank(); }
  Index dim(Index i) const { return shape_.dim(i); }
  Index numel() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  float& operator[](Index i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](Index i) const { return data_[static_cast<std::size_t>(i)]; }

  // Multi-index accessors (bounds-checked in debug via at()).
  float& at(std::initializer_list<Index> idx);

  // Returns a tensor sharing no storage with this one, with the same data
  // but a different shape. numel must match.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  // Re-shape this tensor to `new_shape`, keeping the existing storage when
  // its capacity allows (shrinking never reallocates). Contents are reset
  // to zero. This is what the active-set attack loops use to shrink their
  // live batches without churning the allocator.
  void resize(Shape new_shape);

  // Shrink the batch (leading) dimension to `new_rows`, preserving the
  // leading rows' contents and the storage. Never reallocates.
  void shrink_rows(Index new_rows);

  void fill(float v);
  void zero() { fill(0.0f); }

  // Process-wide count of float-buffer acquisitions by tensors: fresh
  // constructions, copies, and copy-assignments/resizes that outgrow the
  // destination's capacity. Monotonic; read it before/after a region to
  // bound its allocation behaviour (see the attack-loop regression tests).
  [[nodiscard]] static std::uint64_t buffer_allocations();

 private:
  Index flat_index(std::initializer_list<Index> idx) const;
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace con::tensor
