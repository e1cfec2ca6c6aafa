// Attack identifiers and the paper's Table 1 hyper-parameters.
#pragma once

#include <string>

namespace con::attacks {

enum class AttackKind { kIfgm, kIfgsm, kDeepFool };

std::string attack_name(AttackKind kind);
AttackKind attack_from_name(const std::string& name);

struct AttackParams {
  // IFGM/IFGSM: per-iteration step size and L∞ clip radius around the
  // previous iterate (Algorithm 1); iterations = 1 is single-step FGM/FGSM.
  // DeepFool: overshoot factor.
  float epsilon = 0.02f;
  int iterations = 1;
};

// Table 1 of the paper:
//   Network/Attack   I-FGSM        I-FGM        DeepFool
//                     ε     i       ε     i      ε     i
//   LeNet5           0.02   12     10.0   5     0.01   5
//   CifarNet         0.02   12     0.02   12    0.01   3
AttackParams paper_params(AttackKind kind, const std::string& network);

}  // namespace con::attacks
