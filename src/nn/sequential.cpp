#include "nn/sequential.h"

#include <stdexcept>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace con::nn {

namespace {

bool takes_tail(const Layer& layer) {
  return dynamic_cast<const Conv2d*>(&layer) != nullptr ||
         dynamic_cast<const Linear*>(&layer) != nullptr;
}

// Appends the elementwise `step` to `tail` if the two still compute
// fake-quant-then-ReLU. A fake-quant onto the grid the tail already ends on
// is the exact identity with an all-ones gate, so it is absorbed: the
// tail's fake-quant leaves values on that grid inside [lo, hi], and a ReLU
// keeps them there when lo ≤ 0 ≤ hi.
bool extend(tensor::OutputTail& tail, const tensor::OutputTail& step) {
  if (step.fake_quant == step.relu) return false;
  if (step.relu) {
    if (tail.relu) return false;
    tail.relu = true;
    return true;
  }
  if (tail.empty()) {
    tail = step;
    return true;
  }
  const bool same_grid = tail.fake_quant && step.step == tail.step &&
                         step.lo == tail.lo && step.hi == tail.hi;
  return same_grid && (!tail.relu || (tail.lo <= 0.0f && tail.hi >= 0.0f));
}

}  // namespace

void Sequential::regroup() {
  groups_.clear();
  for (std::size_t i = 0; i < layers_.size();) {
    Group g{.first = i, .end = i + 1, .tail = {}, .name = layers_[i]->name()};
    if (takes_tail(*layers_[i])) {
      while (g.end < layers_.size() &&
             extend(g.tail, layers_[g.end]->as_tail())) {
        ++g.end;
      }
    }
    g.forward_ns = &obs::dist(g.name + ".forward_ns");
    g.backward_ns = &obs::dist(g.name + ".backward_ns");
    i = g.end;
    groups_.push_back(std::move(g));
  }
}

void Sequential::insert(std::size_t index, std::unique_ptr<Layer> layer) {
  if (index > layers_.size()) {
    throw std::out_of_range("Sequential::insert: index out of range");
  }
  layers_.insert(layers_.begin() + static_cast<std::ptrdiff_t>(index),
                 std::move(layer));
  regroup();
}

Tensor Sequential::forward(const Tensor& x, bool train,
                           ForwardTape& tape) const {
  // Dispatch the first layer against `x` directly instead of copying the
  // batch into a working tensor — forward is called once per attack
  // iteration, so the head copy was a full-batch allocation per step.
  if (layers_.empty()) return x;
  obs::Span model_span(name_, "forward");
  static obs::Counter& calls = obs::counter("model.forward_calls");
  calls.add(1);
  // The tape spans every layer, also when the last ones are fused into a
  // group, so backward's matching-forward check holds.
  tape.slot(layers_.size() - 1);
  Tensor h;
  const Tensor* in = &x;
  for (const Group& g : groups_) {
    const Layer& layer = *layers_[g.first];
    TapeSlot& slot = tape.slot(g.first);
    obs::Span span(g.name, "fwd");
    obs::ScopedTimer timer(*g.forward_ns);
    if (g.tail.empty()) {
      h = layer.forward(*in, train, slot);
    } else if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      h = conv->forward(*in, train, slot, g.tail);
    } else {
      h = static_cast<const Linear&>(layer).forward(*in, train, slot, g.tail);
    }
    in = &h;
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_logits,
                            ForwardTape& tape) const {
  if (tape.size() < layers_.size()) {
    throw std::invalid_argument(
        "Sequential::backward: tape has no matching forward");
  }
  if (layers_.empty()) return grad_logits;
  obs::Span model_span(name_, "backward");
  static obs::Counter& calls = obs::counter("model.backward_calls");
  calls.add(1);
  Tensor g;
  const Tensor* in = &grad_logits;
  for (auto it = groups_.rbegin(); it != groups_.rend(); ++it) {
    TapeSlot& slot = tape.slot(it->first);
    obs::Span span(it->name, "bwd");
    obs::ScopedTimer timer(*it->backward_ns);
    if (!it->tail.empty()) {
      if (in != &g) g = *in;  // the caller's gradient is const: copy it once
      tensor::tail_backward_inplace(g, slot.aux);
      in = &g;
    }
    g = layers_[it->first]->backward(*in, slot);
    in = &g;
  }
  return g;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  return forward(x, train, scratch_tape_);
}

Tensor Sequential::backward(const Tensor& grad_logits) {
  return backward(grad_logits, scratch_tape_);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<const Parameter*> Sequential::parameters() const {
  std::vector<const Parameter*> params;
  for (const auto& layer : layers_) {
    // Layer::parameters() is non-const only because callers may mutate the
    // parameters; the call itself does not modify the layer.
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

tensor::Index Sequential::num_parameters() const {
  tensor::Index n = 0;
  for (const Parameter* p : parameters()) n += p->value().numel();
  return n;
}

double Sequential::density() const {
  tensor::Index total = 0;
  tensor::Index nonzero = 0;
  for (const Parameter* p : parameters()) {
    if (!p->compressible) continue;
    total += p->value().numel();
    if (p->has_mask()) {
      for (float m : p->mask().flat()) {
        if (m != 0.0f) ++nonzero;
      }
    } else {
      nonzero += p->value().numel();
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(nonzero) / static_cast<double>(total);
}

Sequential Sequential::clone() const {
  Sequential copy(name_);
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

}  // namespace con::nn
