// Transfer evaluation: generate adversarial samples on a source model and
// measure classification accuracy on a target model — the measurement at
// the heart of the study.
#pragma once

#include "attacks/attack.h"
#include "core/scenario.h"
#include "data/dataset.h"
#include "nn/sequential.h"

namespace con::core {

// All three scenario accuracies for one (baseline, compressed) pair plus
// the compressed model's clean accuracy — one point of a Figure 2/5 panel.
struct ScenarioPoint {
  double base_accuracy = 0.0;   // compressed model, no attack (blue line)
  double comp_to_comp = 0.0;    // scenario 1 (green line)
  double full_to_comp = 0.0;    // scenario 2 (cyan line)
  double comp_to_full = 0.0;    // scenario 3 (red line)
};

// `baseline_adv` is the scenario-2 adversarial batch, crafted against the
// baseline over `eval_set`. It does not depend on the compressed model, so
// sweeps over a whole compression family generate it once
// (Study::adversarial) and share it across every member.
ScenarioPoint evaluate_scenarios(const nn::Sequential& baseline,
                                 const nn::Sequential& compressed,
                                 attacks::AttackKind attack,
                                 const attacks::AttackParams& params,
                                 const data::Dataset& eval_set,
                                 const tensor::Tensor& baseline_adv);

// Deployed-integer scenario axis: the same four accuracies, but every
// evaluation of the compressed model runs on the real int8 backend
// (compress::integer_forward) instead of the simulated fake-quant float
// graph. Attack generation is unchanged — gradients only exist on the
// simulated model, which is exactly the white-box threat model for a
// deployed integer network: the attacker differentiates the published
// fake-quant graph and the samples transfer (or not) to the int32
// accumulate / requantise deployment. `compressed` must be
// integer-executable (compress::integer_blocker); throws otherwise.
// `compressed` is non-const because the integer entry points hang packed
// code panels off the layers' caches; logical state is untouched.
ScenarioPoint evaluate_scenarios_integer(const nn::Sequential& baseline,
                                         nn::Sequential& compressed,
                                         attacks::AttackKind attack,
                                         const attacks::AttackParams& params,
                                         const data::Dataset& eval_set,
                                         const tensor::Tensor& baseline_adv);

// Transfer rate as used for the §3.3 cross-initialisation check: of the
// samples that fool `source`, the fraction that also fool `target`. `adv`
// is crafted against `source` over `eval_set` (Study::adversarial).
double transfer_rate(const nn::Sequential& source, const nn::Sequential& target,
                     const tensor::Tensor& adv, const data::Dataset& eval_set);

}  // namespace con::core
