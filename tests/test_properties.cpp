// Property-based tests: invariants that must hold across whole parameter
// families, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "attacks/attack.h"
#include "compress/pruner.h"
#include "compress/quant_activation.h"
#include "data/synth_digits.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "test_helpers.h"

namespace con {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

// ---- attack-family invariants ----------------------------------------------

// The cases are the three attacks plus single-step IFGM and IFGSM
// (iterations = 1), named fgm and fgsm after the classic attacks.
enum class AttackCase { kIfgmOneStep, kIfgsmOneStep, kIfgm, kIfgsm, kDeepFool };

std::string case_name(AttackCase c) {
  switch (c) {
    case AttackCase::kIfgmOneStep: return "fgm";
    case AttackCase::kIfgsmOneStep: return "fgsm";
    case AttackCase::kIfgm: return "ifgm";
    case AttackCase::kIfgsm: return "ifgsm";
    case AttackCase::kDeepFool: return "deepfool";
  }
  return "";
}

class AttackInvariants : public ::testing::TestWithParam<AttackCase> {
 protected:
  static void SetUpTestSuite() {
    data::SynthDigitsConfig dc;
    dc.train_size = 1000;
    dc.test_size = 60;
    split_ = new data::TrainTestSplit(data::make_synth_digits(dc));
    model_ = new nn::Sequential(models::make_lenet5_small(55));
    nn::TrainConfig tc;
    tc.epochs = 4;
    nn::train_classifier(*model_, split_->train.images, split_->train.labels,
                         tc);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    model_ = nullptr;
    split_ = nullptr;
  }

  // The case's Table 1 attack on `sub`.
  static Tensor attack(const data::Dataset& sub) {
    using attacks::AttackKind;
    const AttackCase c = GetParam();
    const bool one_step =
        c == AttackCase::kIfgmOneStep || c == AttackCase::kIfgsmOneStep;
    AttackKind kind = AttackKind::kDeepFool;
    if (c == AttackCase::kIfgmOneStep || c == AttackCase::kIfgm) {
      kind = AttackKind::kIfgm;
    } else if (c == AttackCase::kIfgsmOneStep || c == AttackCase::kIfgsm) {
      kind = AttackKind::kIfgsm;
    }
    attacks::AttackParams params = attacks::paper_params(kind, "lenet5");
    if (one_step) params.iterations = 1;
    return attacks::run_attack_batched(kind, *model_, sub.images, sub.labels,
                                       params);
  }

  static nn::Sequential* model_;
  static data::TrainTestSplit* split_;
};

nn::Sequential* AttackInvariants::model_ = nullptr;
data::TrainTestSplit* AttackInvariants::split_ = nullptr;

TEST_P(AttackInvariants, OutputsStayInPixelDomain) {
  Tensor adv = attack(split_->test.take(15));
  EXPECT_GE(tensor::min_value(adv), 0.0f);
  EXPECT_LE(tensor::max_value(adv), 1.0f);
}

TEST_P(AttackInvariants, DeterministicGivenSameInputs) {
  data::Dataset sub = split_->test.take(6);
  Tensor a = attack(sub);
  Tensor b = attack(sub);
  for (Index i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_P(AttackInvariants, DoesNotMutateModelWeights) {
  data::Dataset sub = split_->test.take(6);
  std::vector<float> before;
  for (nn::Parameter* p : model_->parameters()) {
    before.insert(before.end(), p->value().flat().begin(),
                  p->value().flat().end());
  }
  attack(sub);
  std::size_t i = 0;
  for (nn::Parameter* p : model_->parameters()) {
    for (float v : p->value().flat()) ASSERT_EQ(v, before[i++]);
  }
}

TEST_P(AttackInvariants, IncreasesMeanLoss) {
  data::Dataset sub = split_->test.take(40);
  const double before =
      nn::evaluate_loss(*model_, sub.images, sub.labels);
  Tensor adv = attack(sub);
  const double after = nn::evaluate_loss(*model_, adv, sub.labels);
  EXPECT_GT(after, before);
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AttackInvariants,
    ::testing::Values(AttackCase::kIfgmOneStep, AttackCase::kIfgsmOneStep,
                      AttackCase::kIfgm, AttackCase::kIfgsm,
                      AttackCase::kDeepFool),
    [](const ::testing::TestParamInfo<AttackCase>& info) {
      return case_name(info.param);
    });

// ---- pruning invariants ------------------------------------------------------

class PruningInvariants : public ::testing::TestWithParam<double> {};

TEST_P(PruningInvariants, MaskUpdateIsIdempotent) {
  nn::Sequential m = models::make_lenet5_small(61);
  compress::DnsPruner pruner(
      m, compress::DnsConfig{.target_density = GetParam()});
  std::vector<float> masks_before;
  for (nn::Parameter* p : m.parameters()) {
    if (p->has_mask()) {
      masks_before.insert(masks_before.end(), p->mask().flat().begin(),
                          p->mask().flat().end());
    }
  }
  pruner.update_masks();  // no weight change in between
  std::size_t i = 0;
  for (nn::Parameter* p : m.parameters()) {
    if (!p->has_mask()) continue;
    for (float v : p->mask().flat()) ASSERT_EQ(v, masks_before[i++]);
  }
}

TEST_P(PruningInvariants, EffectiveWeightsAreMaskedWeights) {
  nn::Sequential m = models::make_lenet5_small(62);
  compress::DnsPruner pruner(
      m, compress::DnsConfig{.target_density = GetParam()});
  for (nn::Parameter* p : m.parameters()) {
    if (!p->has_mask()) continue;
    Tensor gate;
    Tensor eff = p->effective(gate);
    for (Index i = 0; i < eff.numel(); ++i) {
      ASSERT_EQ(eff[i], p->value()[i] * p->mask()[i]);
    }
  }
}

TEST_P(PruningInvariants, ForwardUsesMaskedWeightsOnly) {
  // Scaling a pruned weight must not change the model output.
  nn::Sequential m = models::make_lenet5_small(63);
  compress::DnsPruner pruner(
      m, compress::DnsConfig{.target_density = GetParam()});
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 64);
  Tensor y1 = m.forward(x, false);
  // find a masked weight and blow it up
  for (nn::Parameter* p : m.parameters()) {
    if (!p->has_mask()) continue;
    for (Index i = 0; i < p->mask().numel(); ++i) {
      if (p->mask()[i] == 0.0f) {
        p->edit([&](Tensor& v, Tensor&) { v[i] = 1e6f; });
        break;
      }
    }
  }
  Tensor y2 = m.forward(x, false);
  for (Index i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1[i], y2[i]);
}

INSTANTIATE_TEST_SUITE_P(Densities, PruningInvariants,
                         ::testing::Values(0.7, 0.4, 0.15, 0.05));

// ---- quantisation invariants --------------------------------------------------

class QuantInvariants : public ::testing::TestWithParam<int> {};

TEST_P(QuantInvariants, DoubleQuantisationIsIdentity) {
  const auto fmt = compress::FixedPointFormat::paper_format(GetParam());
  util::Rng rng(65);
  Tensor t({300});
  tensor::fill_normal(t, rng, 0.0f, 2.0f);
  Tensor once = compress::fixed_point_quantize(t, fmt);
  Tensor twice = compress::fixed_point_quantize(once, fmt);
  for (Index i = 0; i < t.numel(); ++i) ASSERT_EQ(once[i], twice[i]);
}

TEST_P(QuantInvariants, QuantisedModelOutputsAreDeterministic) {
  nn::Sequential base = models::make_lenet5_small(66);
  nn::Sequential q = compress::quantize_model(
      base, compress::QuantizeOptions{
                .format = compress::FixedPointFormat::paper_format(GetParam())});
  Tensor x = random_batch(Shape{3, 1, 28, 28}, 67);
  Tensor y1 = q.forward(x, false);
  Tensor y2 = q.forward(x, false);
  for (Index i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1[i], y2[i]);
}

TEST_P(QuantInvariants, CloneOfQuantisedModelAgrees) {
  nn::Sequential base = models::make_lenet5_small(68);
  nn::Sequential q = compress::quantize_model(
      base, compress::QuantizeOptions{
                .format = compress::FixedPointFormat::paper_format(GetParam())});
  nn::Sequential q2 = q.clone();
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 69);
  Tensor y1 = q.forward(x, false);
  Tensor y2 = q2.forward(x, false);
  for (Index i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1[i], y2[i]);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, QuantInvariants,
                         ::testing::Values(4, 8, 12, 16, 24, 32));

// ---- model zoo invariants -----------------------------------------------------

class ModelInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelInvariants, CheckpointRoundTripIsExact) {
  nn::Sequential a = models::make_model(GetParam(), 71);
  const std::string path =
      std::string("/tmp/con_prop_") + GetParam() + ".ckpt";
  io::save_model(a, path);
  nn::Sequential b = models::make_model(GetParam(), 72);
  io::load_model_into(b, path);
  const models::InputSpec spec = models::input_spec(GetParam());
  Tensor x = random_batch(Shape{2, spec.channels, spec.height, spec.width},
                          73);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (Index i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST_P(ModelInvariants, GradientsAccumulateAcrossBackwardCalls) {
  nn::Sequential m = models::make_model(GetParam(), 74);
  const models::InputSpec spec = models::input_spec(GetParam());
  Tensor x = random_batch(Shape{2, spec.channels, spec.height, spec.width},
                          75);
  std::vector<int> labels = {0, 1};
  m.zero_grad();
  Tensor logits = m.forward(x, false);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);
  std::vector<float> g1;
  for (nn::Parameter* p : m.parameters()) {
    g1.insert(g1.end(), p->grad.flat().begin(), p->grad.flat().end());
  }
  // second backward without zero_grad: grads double
  m.forward(x, false);
  m.backward(loss.grad_logits);
  std::size_t i = 0;
  for (nn::Parameter* p : m.parameters()) {
    for (float v : p->grad.flat()) {
      const float expected = g1[i];
      ++i;
      ASSERT_NEAR(v, 2.0f * expected, 1e-4f + std::fabs(expected) * 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ModelInvariants,
                         ::testing::Values("lenet5-small", "cifarnet-small",
                                           "lenet5-classic"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace con
