// Trainable parameter with optional pruning mask and weight transform.
//
// This is the seam where the compression library plugs into the NN
// framework:
//  - `mask` implements fine-grained pruning (dynamic network surgery): the
//    forward pass uses value ⊙ mask, while the optimizer keeps updating the
//    dense `value`, so pruned weights continue to learn and may re-join when
//    the mask is recomputed (Guo et al. 2016).
//  - `transform` implements fake-quantisation of weights: the forward pass
//    uses transform(value ⊙ mask) and `grad_gate` records where the
//    saturating straight-through estimator lets gradient flow back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tensor/tensor.h"

namespace con::nn {

using tensor::Tensor;

// Interface for weight-space transforms applied on top of masking.
class WeightTransform {
 public:
  virtual ~WeightTransform() = default;

  // Maps raw (already masked) weights to effective weights. `gate` must be
  // filled with 1 where gradient should flow back to the raw weight and 0
  // where it is blocked (e.g. values saturated by fixed-point clipping).
  virtual void apply(const Tensor& raw, Tensor& effective,
                     Tensor& gate) const = 0;

  virtual std::string describe() const = 0;
};

// value, mask and transform are private: every write goes through a method
// that bumps `version`, the counter the packed-weight cache
// (nn/packed_weights.h) keys on, so a write that would leave stale panels
// behind does not compile.
class Parameter {
 public:
  std::string name;
  // Gradient accumulator. Mutable because it is not logical model state:
  // const (reentrant) backward passes may accumulate into it when their
  // tape asks for parameter gradients — by contract only one such pass
  // runs at a time (training is single-threaded).
  mutable Tensor grad;
  // Gradient gate consumed by the optimizers at step() time; refreshed by
  // train-mode forward passes. Empty when no transform is attached. Mutable
  // for the same reason as `grad`.
  mutable Tensor grad_gate;
  // Dense parameters that should never be pruned/quantised (biases) set
  // this to false; compression passes respect it.
  bool compressible = true;

  explicit Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)),
        grad(initial.shape()),
        value_(std::move(initial)) {}

  const Tensor& value() const { return value_; }
  // Pruning mask; empty tensor means "dense". Same shape as value when set.
  const Tensor& mask() const { return mask_; }
  const std::shared_ptr<const WeightTransform>& transform() const {
    return transform_;
  }
  // Changes whenever value, mask or transform does (and never otherwise).
  std::uint64_t version() const { return version_; }

  // Replace one field. set_value and set_mask throw std::invalid_argument,
  // naming the parameter and leaving it unchanged, when the result would
  // pair a mask with a value of another shape.
  void set_value(Tensor value);
  void set_mask(Tensor mask);
  void set_transform(std::shared_ptr<const WeightTransform> transform);

  // In-place write: calls fn(value, mask), then bumps the version. Throws
  // like set_mask if fn left the two shapes apart.
  template <class Fn>
  void edit(Fn&& fn) {
    fn(value_, mask_);
    bump_version();
    check_shapes(value_, mask_);
  }

  // The weights actually used by the forward pass: transform(value ⊙ mask).
  // Writes the straight-through-estimator gate (empty when no transform)
  // into `gate_out` instead of touching member state, so concurrent
  // forwards on a shared model do not race.
  Tensor effective(Tensor& gate_out) const;

  // True if a mask is attached (even an all-ones one).
  bool has_mask() const { return !mask_.empty(); }

  void zero_grad() { grad.zero(); }

 private:
  void bump_version() { ++version_; }
  void check_shapes(const Tensor& value, const Tensor& mask) const;

  Tensor value_;
  Tensor mask_;
  std::shared_ptr<const WeightTransform> transform_;
  // The cache also fingerprints the value/mask/transform storage pointers,
  // but same-shape copy-assignment reuses the allocation, so the counter is
  // the authoritative signal.
  std::uint64_t version_ = 1;
};

}  // namespace con::nn
