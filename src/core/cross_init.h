// Cross-initialisation transferability (§3.3): two models of the same
// architecture trained from different random initialisations; how many
// DeepFool samples crafted on one fool the other? The paper reports 7% for
// LeNet5 and 60% for CifarNet, motivating its choice of "least
// transferable" attacks as a lower bound.
#pragma once

#include "attacks/params.h"
#include "core/study.h"

namespace con::core {

struct CrossInitResult {
  double accuracy_a = 0.0;  // clean test accuracy, model A
  double accuracy_b = 0.0;  // clean test accuracy, model B
  double transfer_a_to_b = 0.0;  // fraction of A-fooling samples fooling B
  double transfer_b_to_a = 0.0;
};

// Both trainings and both directions' batches are store derivations
// (Study::trained_baseline, Study::adversarial): a warm re-run crafts
// nothing.
CrossInitResult cross_init_transferability(Study& study,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params,
                                           std::uint64_t seed_a,
                                           std::uint64_t seed_b);

}  // namespace con::core
