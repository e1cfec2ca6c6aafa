#include "attacks/gradient.h"

#include "nn/loss.h"

namespace con::attacks {

Tensor loss_input_gradient(const nn::Sequential& model, const Tensor& batch,
                           const std::vector<int>& labels) {
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  return loss_input_gradient(model, batch, labels, tape);
}

Tensor loss_input_gradient(const nn::Sequential& model, const Tensor& batch,
                           const std::vector<int>& labels,
                           nn::ForwardTape& tape) {
  Tensor logits = model.forward(batch, /*train=*/false, tape);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  return model.backward(loss.grad_logits, tape);
}

}  // namespace con::attacks
