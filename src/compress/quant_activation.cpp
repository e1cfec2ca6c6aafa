#include "compress/quant_activation.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::compress {

using tensor::Tensor;

QuantActivation::QuantActivation(FixedPointFormat fmt, std::string layer_name)
    : fmt_(checked_format(fmt, "QuantActivation")),
      name_(std::move(layer_name)) {}

Tensor QuantActivation::forward(const Tensor& x, bool /*train*/,
                                nn::TapeSlot& slot) const {
  Tensor y(x.shape());
  // The gate reuses the slot's storage, so an attack loop re-running the
  // same tape allocates only the output. fake_quant overwrites every gate
  // element, so a same-shape slot skips resize's zero fill.
  if (slot.aux.shape() != x.shape()) slot.aux.resize(x.shape());
  tensor::fake_quant(y, &slot.aux, x, fmt_.step(), fmt_.lo(), fmt_.hi());
  return y;
}

Tensor QuantActivation::backward(const Tensor& grad_out,
                                 nn::TapeSlot& slot) const {
  if (grad_out.shape() != slot.aux.shape()) {
    throw std::invalid_argument(name_ + ": grad shape mismatch");
  }
  return tensor::mul(grad_out, slot.aux);
}

tensor::OutputTail QuantActivation::as_tail() const {
  // fmt_ is valid(): the step is a power of two with a finite reciprocal.
  return {.fake_quant = true,
          .step = fmt_.step(),
          .lo = fmt_.lo(),
          .hi = fmt_.hi()};
}

std::unique_ptr<nn::Layer> QuantActivation::clone() const {
  return std::make_unique<QuantActivation>(fmt_, name_);
}

nn::Sequential quantize_model(const nn::Sequential& model,
                              const QuantizeOptions& options) {
  nn::Sequential q = model.clone();
  q.set_name(model.name() + "-q" + std::to_string(options.format.total_bits));

  auto transform =
      std::make_shared<const FixedPointWeightTransform>(options.format);
  for (nn::Parameter* p : q.parameters()) {
    if (p->compressible) p->set_transform(transform);
  }

  if (options.quantize_activations) {
    // Insert after every layer that produces activations the hardware would
    // keep in fixed point: parameterised layers and nonlinearities. Also
    // quantise the network input (sensor data enters the fixed-point
    // datapath first on a real accelerator).
    std::size_t i = 0;
    q.insert(0, std::make_unique<QuantActivation>(
                    options.format, "quant_in"));
    i = 1;
    while (i < q.num_layers()) {
      nn::Layer& layer = q.layer(i);
      const bool produces_activations =
          !layer.parameters().empty() || layer.name().rfind("relu", 0) == 0;
      const bool already_quant =
          dynamic_cast<QuantActivation*>(&layer) != nullptr;
      if (produces_activations && !already_quant) {
        q.insert(i + 1, std::make_unique<QuantActivation>(
                            options.format,
                            "quant_" + layer.name()));
        i += 2;
      } else {
        ++i;
      }
    }
  }
  return q;
}

nn::Sequential strip_quantization(const nn::Sequential& model) {
  nn::Sequential out(model.name() + "-dequant");
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (dynamic_cast<const QuantActivation*>(&layer) != nullptr) continue;
    out.add(layer.clone());
  }
  // set_transform bumps the version: a layer that already packed its
  // quantized panels drops them once the transform is gone.
  for (nn::Parameter* p : out.parameters()) p->set_transform(nullptr);
  return out;
}

}  // namespace con::compress
