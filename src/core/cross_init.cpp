#include "core/cross_init.h"

#include "core/transfer.h"
#include "nn/trainer.h"

namespace con::core {

CrossInitResult cross_init_transferability(Study& study,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params,
                                           std::uint64_t seed_a,
                                           std::uint64_t seed_b) {
  const ModelArtifact a = study.trained_baseline(seed_a);
  const ModelArtifact b = study.trained_baseline(seed_b);

  CrossInitResult result;
  result.accuracy_a = nn::evaluate_accuracy(
      a.model, study.test_set().images, study.test_set().labels);
  result.accuracy_b = nn::evaluate_accuracy(
      b.model, study.test_set().images, study.test_set().labels);
  result.transfer_a_to_b = transfer_rate(
      a.model, b.model, study.adversarial(a, attack, params).images,
      study.attack_set());
  result.transfer_b_to_a = transfer_rate(
      b.model, a.model, study.adversarial(b, attack, params).images,
      study.attack_set());
  return result;
}

}  // namespace con::core
