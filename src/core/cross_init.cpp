#include "core/cross_init.h"

#include "core/transfer.h"
#include "nn/trainer.h"

namespace con::core {

CrossInitResult cross_init_transferability(Study& study,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params,
                                           std::uint64_t seed_a,
                                           std::uint64_t seed_b) {
  nn::Sequential model_a = study.trained_baseline(seed_a).model;
  nn::Sequential model_b = study.trained_baseline(seed_b).model;

  CrossInitResult result;
  result.accuracy_a = nn::evaluate_accuracy(
      model_a, study.test_set().images, study.test_set().labels);
  result.accuracy_b = nn::evaluate_accuracy(
      model_b, study.test_set().images, study.test_set().labels);
  result.transfer_a_to_b =
      transfer_rate(model_a, model_b, attack, params, study.attack_set());
  result.transfer_b_to_a =
      transfer_rate(model_b, model_a, attack, params, study.attack_set());
  return result;
}

}  // namespace con::core
