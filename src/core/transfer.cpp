#include "core/transfer.h"

#include <stdexcept>

#include "compress/integer_model.h"
#include "nn/trainer.h"

namespace con::core {

ScenarioPoint evaluate_scenarios(const nn::Sequential& baseline,
                                 const nn::Sequential& compressed,
                                 attacks::AttackKind attack,
                                 const attacks::AttackParams& params,
                                 const data::Dataset& eval_set,
                                 const tensor::Tensor& baseline_adv) {
  if (baseline_adv.shape() != eval_set.images.shape()) {
    throw std::invalid_argument(
        "evaluate_scenarios: baseline_adv shape mismatch");
  }
  ScenarioPoint p;
  p.base_accuracy =
      nn::evaluate_accuracy(compressed, eval_set.images, eval_set.labels);
  // Samples from the compressed model serve scenarios 1 and 3; one attack
  // generation covers both.
  tensor::Tensor adv_comp = attacks::run_attack_batched(
      attack, compressed, eval_set.images, eval_set.labels, params,
      eval_set.num_classes());
  p.comp_to_comp =
      nn::evaluate_accuracy(compressed, adv_comp, eval_set.labels);
  p.comp_to_full = nn::evaluate_accuracy(baseline, adv_comp, eval_set.labels);
  p.full_to_comp =
      nn::evaluate_accuracy(compressed, baseline_adv, eval_set.labels);
  return p;
}

ScenarioPoint evaluate_scenarios_integer(const nn::Sequential& baseline,
                                         nn::Sequential& compressed,
                                         attacks::AttackKind attack,
                                         const attacks::AttackParams& params,
                                         const data::Dataset& eval_set,
                                         const tensor::Tensor& baseline_adv) {
  if (baseline_adv.shape() != eval_set.images.shape()) {
    throw std::invalid_argument(
        "evaluate_scenarios_integer: baseline_adv shape mismatch");
  }
  ScenarioPoint p;
  p.base_accuracy = compress::integer_accuracy(compressed, eval_set.images,
                                               eval_set.labels);
  // Samples are crafted against the simulated fake-quant graph (the only
  // differentiable form) and measured against the deployed integer model.
  tensor::Tensor adv_comp = attacks::run_attack_batched(
      attack, compressed, eval_set.images, eval_set.labels, params,
      eval_set.num_classes());
  p.comp_to_comp =
      compress::integer_accuracy(compressed, adv_comp, eval_set.labels);
  p.comp_to_full = nn::evaluate_accuracy(baseline, adv_comp, eval_set.labels);
  p.full_to_comp =
      compress::integer_accuracy(compressed, baseline_adv, eval_set.labels);
  return p;
}

double transfer_rate(const nn::Sequential& source, const nn::Sequential& target,
                     const tensor::Tensor& adv, const data::Dataset& eval_set) {
  if (adv.shape() != eval_set.images.shape()) {
    throw std::invalid_argument("transfer_rate: adv shape mismatch");
  }
  const std::vector<int> src_clean =
      nn::predict(source, eval_set.images);
  const std::vector<int> src_adv = nn::predict(source, adv);
  const std::vector<int> tgt_clean =
      nn::predict(target, eval_set.images);
  const std::vector<int> tgt_adv = nn::predict(target, adv);

  // A sample counts toward the rate when both models classified it
  // correctly when clean and the attack fooled the source; it transfers
  // when it also fools the target.
  std::size_t fooled_source = 0;
  std::size_t transferred = 0;
  for (std::size_t i = 0; i < eval_set.labels.size(); ++i) {
    const int y = eval_set.labels[i];
    if (src_clean[i] != y || tgt_clean[i] != y) continue;
    if (src_adv[i] == y) continue;
    ++fooled_source;
    if (tgt_adv[i] != y) ++transferred;
  }
  if (fooled_source == 0) return 0.0;
  return static_cast<double>(transferred) /
         static_cast<double>(fooled_source);
}

}  // namespace con::core
