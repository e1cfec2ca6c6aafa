#include "compress/integer_model.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "compress/fixed_point.h"
#include "compress/quant_activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/tape.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "util/threadpool.h"

namespace con::compress {

using tensor::Index;
using tensor::Tensor;

namespace {

// The weight format a layer's transform snaps onto, or nullptr when the
// layer is not fixed-point quantised.
const FixedPointFormat* weight_format_of(nn::Parameter& w) {
  const auto* t =
      dynamic_cast<const FixedPointWeightTransform*>(w.transform().get());
  return t == nullptr ? nullptr : &t->format();
}

bool int8_range(const FixedPointFormat& fmt) {
  return fmt.total_bits >= 2 && fmt.total_bits <= 8 &&
         fmt.fraction_bits() >= 0;
}

// Finds the model-wide activation format (the QuantActivation layers all
// share one); sets `why` and returns nullptr when absent or inconsistent.
const FixedPointFormat* activation_format_of(nn::Sequential& model,
                                             std::string& why) {
  const FixedPointFormat* afmt = nullptr;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const auto* qa = dynamic_cast<const QuantActivation*>(&model.layer(i));
    if (qa == nullptr) continue;
    const FixedPointFormat& f = qa->format();
    if (afmt != nullptr && (f.total_bits != afmt->total_bits ||
                            f.integer_bits != afmt->integer_bits)) {
      why = "mixed activation formats (" + afmt->to_string() + " vs " +
            f.to_string() + ")";
      return nullptr;
    }
    afmt = &f;
  }
  if (afmt == nullptr) {
    why = "activations are not quantised (no QuantActivation layers)";
  }
  return afmt;
}

nn::Int8FormatKey make_key(const FixedPointFormat& wfmt,
                           const FixedPointFormat& afmt) {
  return nn::Int8FormatKey{
      .weight_total_bits = wfmt.total_bits,
      .weight_integer_bits = wfmt.integer_bits,
      .act_total_bits = afmt.total_bits,
      .act_integer_bits = afmt.integer_bits,
  };
}

// Conservative int32 headroom screen: |Σ w·x| ≤ depth·2¹⁴; reserving 2³⁰
// for the bias leaves room for any plausible bias code. get_int8 performs
// the exact check (with the real bias codes) and throws past it.
bool depth_in_headroom(Index depth) {
  return depth * 16384 <= (std::int64_t{1} << 30);
}

}  // namespace

std::string integer_blocker(nn::Sequential& model) {
  std::string why;
  const FixedPointFormat* afmt = activation_format_of(model, why);
  if (afmt == nullptr) return why;
  if (!int8_range(*afmt)) {
    return "activation format " + afmt->to_string() +
           " does not fit the int8 backend";
  }
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    nn::Parameter* w = nullptr;
    Index depth = 0;
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      w = &lin->weight();
      depth = lin->in_features();
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      w = &conv->weight();
      depth = conv->spec().in_channels * conv->spec().kernel *
              conv->spec().kernel;
    } else {
      continue;
    }
    const FixedPointFormat* wfmt = weight_format_of(*w);
    if (wfmt == nullptr) {
      return layer.name() + ": weights are not fixed-point quantised";
    }
    if (!int8_range(*wfmt)) {
      return layer.name() + ": weight format " + wfmt->to_string() +
             " does not fit the int8 backend";
    }
    if (!depth_in_headroom(depth)) {
      return layer.name() + ": accumulation depth " + std::to_string(depth) +
             " exceeds int32 accumulator headroom";
    }
  }
  return "";
}

bool integer_executable(nn::Sequential& model) {
  return integer_blocker(model).empty();
}

Tensor integer_forward(nn::Sequential& model, const Tensor& x) {
  std::string why = integer_blocker(model);
  if (!why.empty()) {
    throw std::invalid_argument("integer_forward: " + why);
  }
  const FixedPointFormat* afmt = activation_format_of(model, why);
  Tensor cur = x;
  // The float forward's groups. A group's tail layers are ReLU and
  // QuantActivation of the model-wide format, and an int8 layer's output
  // is on that grid (finite codes times the step, inside the format's
  // range), so the group's fake-quants are exact identities there and do
  // not run, and its ReLU is the requantiser's max(out_lo, 0).
  for (const nn::Sequential::Group& g : model.groups()) {
    nn::Layer& layer = model.layer(g.first);
    obs::Span span(g.name, "int8");
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      cur = lin->forward_int8(
          cur, make_key(*weight_format_of(lin->weight()), *afmt), g.tail.relu);
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      cur = conv->forward_int8(
          cur, make_key(*weight_format_of(conv->weight()), *afmt),
          g.tail.relu);
    } else if (auto* qa = dynamic_cast<QuantActivation*>(&layer)) {
      // Requantise in place; the int8 path never runs backward, so it
      // needs no STE gate.
      const FixedPointFormat& f = qa->format();
      tensor::fake_quant(cur, nullptr, cur, f.step(), f.lo(), f.hi());
    } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
      // The integer path never runs backward: no argmax index.
      cur = pool->infer(cur);
    } else {
      // Other float layers of the deployed graph (Flatten, a ReLU no group
      // took). Fresh per-layer slot: the integer path never runs backward,
      // so nothing needs to persist.
      nn::TapeSlot slot;
      cur = layer.forward(cur, /*train=*/false, slot);
    }
  }
  return cur;
}

std::pair<FixedPointFormat, FixedPointFormat> integer_formats(
    nn::Sequential& model) {
  std::string why = integer_blocker(model);
  if (!why.empty()) {
    throw std::invalid_argument("integer_formats: " + why);
  }
  const FixedPointFormat* afmt = activation_format_of(model, why);
  const FixedPointFormat* wfmt = nullptr;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    nn::Parameter* w = nullptr;
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      w = &lin->weight();
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      w = &conv->weight();
    } else {
      continue;
    }
    const FixedPointFormat* f = weight_format_of(*w);
    if (wfmt != nullptr && (f->total_bits != wfmt->total_bits ||
                            f->integer_bits != wfmt->integer_bits)) {
      throw std::invalid_argument("integer_formats: mixed weight formats (" +
                                  wfmt->to_string() + " vs " + f->to_string() +
                                  ")");
    }
    wfmt = f;
  }
  if (wfmt == nullptr) {
    throw std::invalid_argument(
        "integer_formats: model has no Linear/Conv2d layers");
  }
  return {*wfmt, *afmt};
}

namespace {

// Contiguous row-slice [lo, hi) of a batch-major tensor.
Tensor slice_rows(const Tensor& x, Index lo, Index hi) {
  std::vector<Index> dims = x.shape().dims();
  dims[0] = hi - lo;
  Tensor out{tensor::Shape(std::move(dims))};
  const Index stride = x.numel() / x.dim(0);
  std::memcpy(out.data(), x.data() + lo * stride,
              static_cast<std::size_t>((hi - lo) * stride) * sizeof(float));
  return out;
}

}  // namespace

std::vector<int> integer_predict(nn::Sequential& model, const Tensor& images,
                                 int batch_size) {
  std::string why = integer_blocker(model);
  if (!why.empty()) {
    throw std::invalid_argument("integer_predict: " + why);
  }
  const Index n = images.dim(0);
  std::vector<int> preds(static_cast<std::size_t>(n));
  const std::size_t num_batches =
      static_cast<std::size_t>((n + batch_size - 1) / batch_size);
  // The int8 forward on a shared model is thread-safe (the packed-panel
  // cache is internally synchronized); every batch writes only its own
  // slots of `preds`.
  util::parallel_for(0, num_batches, [&](std::size_t b) {
    const Index lo = static_cast<Index>(b) * batch_size;
    const Index hi = std::min(n, lo + batch_size);
    const Tensor logits = integer_forward(model, slice_rows(images, lo, hi));
    for (Index i = lo; i < hi; ++i) {
      preds[static_cast<std::size_t>(i)] =
          static_cast<int>(tensor::argmax_row(logits, i - lo));
    }
  });
  return preds;
}

double integer_accuracy(nn::Sequential& model, const Tensor& images,
                        const std::vector<int>& labels, int batch_size) {
  if (images.dim(0) != static_cast<Index>(labels.size())) {
    throw std::invalid_argument("integer_accuracy: image/label count mismatch");
  }
  const std::vector<int> preds = integer_predict(model, images, batch_size);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(labels.size());
}

}  // namespace con::compress
