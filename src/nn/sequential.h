// Sequential model: an ordered stack of layers with chained forward/backward.
//
// A peephole groups each Conv2d/Linear with the ReLU and activation
// fake-quant layers that follow it (Layer::as_tail); forward runs a group
// as one call that applies them in the layer's output epilogue, and
// backward applies their combined mask in one pass. The groups are
// recomputed whenever a layer is added or inserted, and every output and
// gradient is bit-identical to running the layers one by one.
//
// The two group loops are the only place layers are timed: each group's
// forward and backward run inside a "<head>.fwd" / "<head>.bwd" trace span
// and feed the "<head>.forward_ns" / "<head>.backward_ns" distributions,
// where <head> is the name of the group's first layer.
//
// The model itself is immutable during execution: forward/backward are
// const and thread on a caller-owned ForwardTape, so any number of threads
// may run eval-mode forward + non-accumulating backward on one shared
// model concurrently (see nn/layer.h for the full contract). The
// tape-less forward/backward overloads are a single-threaded convenience
// backed by an internal scratch tape.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/tape.h"

namespace con::obs {
class Distribution;
}  // namespace con::obs

namespace con::nn {

class Sequential {
 public:
  Sequential() = default;
  explicit Sequential(std::string model_name) : name_(std::move(model_name)) {}

  // Movable, not copyable (use clone() for deep copies).
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  // One step of the forward walk: the layers [first, end). A group of
  // more than one layer is a Conv2d/Linear (`first`) whose output epilogue
  // computes `tail`, the combined effect of the layers after it; its tape
  // slot keeps the tail's backward mask in `aux`, and the slots of the
  // layers it absorbed stay empty. `name` is the first layer's name, and
  // the two distributions are its wall-time instruments.
  struct Group {
    std::size_t first = 0;
    std::size_t end = 0;
    tensor::OutputTail tail;
    std::string name;
    obs::Distribution* forward_ns = nullptr;
    obs::Distribution* backward_ns = nullptr;
  };

  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    regroup();
  }

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  // Insert a layer at position `index` (used by the quantisation pass to
  // interleave activation-quantisation layers).
  void insert(std::size_t index, std::unique_ptr<Layer> layer);

  // Reentrant execution: per-call state lives in `tape` (slot i belongs to
  // layer i), never in the layers. One forward supports any number of
  // backward calls against the same tape.
  Tensor forward(const Tensor& x, bool train, ForwardTape& tape) const;
  // Gradient of the loss w.r.t. the model input; parameter grads accumulate
  // iff tape.accumulate_param_grads().
  Tensor backward(const Tensor& grad_logits, ForwardTape& tape) const;

  // Single-threaded convenience overloads backed by an internal scratch
  // tape. NOT safe to call concurrently on a shared model.
  Tensor forward(const Tensor& x, bool train = false);
  Tensor backward(const Tensor& grad_logits);

  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;
  void zero_grad();

  // Total number of weight/bias scalars (the paper quotes 431K for LeNet5,
  // 1.3M for CifarNet).
  tensor::Index num_parameters() const;
  // Overall density: non-zero fraction of effective (masked) compressible
  // weights. 1.0 for a dense model.
  double density() const;

  std::size_t num_layers() const { return layers_.size(); }
  // The forward walk, in layer order; covers every layer exactly once.
  const std::vector<Group>& groups() const { return groups_; }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  Sequential clone() const;

 private:
  // Recomputes groups_ from layers_ and resolves each group's instruments;
  // every add/insert calls it.
  void regroup();

  std::string name_ = "model";
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Group> groups_;
  // Backs the tape-less convenience overloads only.
  ForwardTape scratch_tape_;
};

}  // namespace con::nn
