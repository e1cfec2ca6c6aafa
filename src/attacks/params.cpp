#include "attacks/params.h"

#include <stdexcept>

namespace con::attacks {

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kIfgm: return "ifgm";
    case AttackKind::kIfgsm: return "ifgsm";
    case AttackKind::kDeepFool: return "deepfool";
  }
  throw std::logic_error("unreachable attack kind");
}

AttackKind attack_from_name(const std::string& name) {
  if (name == "ifgm") return AttackKind::kIfgm;
  if (name == "ifgsm") return AttackKind::kIfgsm;
  if (name == "deepfool") return AttackKind::kDeepFool;
  throw std::invalid_argument("unknown attack: " + name);
}

AttackParams paper_params(AttackKind kind, const std::string& network) {
  const bool lenet = network.rfind("lenet5", 0) == 0;
  const bool cifar = network.rfind("cifarnet", 0) == 0;
  if (!lenet && !cifar) {
    throw std::invalid_argument("no paper params for network: " + network);
  }
  switch (kind) {
    case AttackKind::kIfgsm:
      return AttackParams{.epsilon = 0.02f, .iterations = 12};
    case AttackKind::kIfgm:
      return lenet ? AttackParams{.epsilon = 10.0f, .iterations = 5}
                   : AttackParams{.epsilon = 0.02f, .iterations = 12};
    case AttackKind::kDeepFool:
      return lenet ? AttackParams{.epsilon = 0.01f, .iterations = 5}
                   : AttackParams{.epsilon = 0.01f, .iterations = 3};
  }
  throw std::logic_error("unreachable attack kind");
}

}  // namespace con::attacks
