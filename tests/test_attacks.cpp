#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attack.h"
#include "attacks/gradient.h"
#include "data/synth_digits.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "oracles/deepfool_reference.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::attacks {
namespace {

using con::testing::max_gradient_error;
using con::testing::model_loss;
using con::testing::numerical_gradient;
using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

// A trained tiny model shared by the attack tests (training is the slow
// part; do it once).
class AttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthDigitsConfig dc;
    dc.train_size = 1500;
    dc.test_size = 150;
    split_ = new data::TrainTestSplit(data::make_synth_digits(dc));
    model_ = new nn::Sequential(models::make_lenet5_small(77));
    nn::TrainConfig tc;
    tc.epochs = 6;
    nn::train_classifier(*model_, split_->train.images, split_->train.labels,
                         tc);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    model_ = nullptr;
    split_ = nullptr;
  }

  static nn::Sequential* model_;
  static data::TrainTestSplit* split_;
};

nn::Sequential* AttackTest::model_ = nullptr;
data::TrainTestSplit* AttackTest::split_ = nullptr;

TEST_F(AttackTest, ModelIsAccurateBeforeAttack) {
  EXPECT_GT(nn::evaluate_accuracy(*model_, split_->test.images,
                                  split_->test.labels),
            0.8);
}

TEST_F(AttackTest, LossInputGradientMatchesNumerical) {
  // Trained ReLU nets have kinks; finite differences cross them at a few
  // coordinates, so assert on the 95th percentile of relative error.
  Tensor x = split_->test.take(2).images;
  std::vector<int> labels(split_->test.labels.begin(),
                          split_->test.labels.begin() + 2);
  Tensor analytic = loss_input_gradient(*model_, x, labels);
  auto f = [&](const Tensor& probe) { return model_loss(*model_, probe, labels); };
  Tensor numeric = numerical_gradient(f, x, 1e-3);
  EXPECT_LT(con::testing::gradient_error_quantile(analytic, numeric, 0.95),
            0.05);
}

TEST_F(AttackTest, LogitGradientMatchesNumerical) {
  data::Dataset one = split_->test.take(1);
  Tensor analytic = logit_input_gradient(*model_, one.images, 3, 10);
  auto f = [&](const Tensor& probe) {
    Tensor logits = model_->forward(probe, false);
    return static_cast<double>(logits.at({0, 3}));
  };
  Tensor numeric = numerical_gradient(f, one.images, 1e-3);
  EXPECT_LT(con::testing::gradient_error_quantile(analytic, numeric, 0.95),
            0.05);
}

TEST_F(AttackTest, AttacksDoNotCorruptParameterGradients) {
  data::Dataset sub = split_->test.take(4);
  // Attacks run on a private ForwardTape with parameter-gradient
  // accumulation off: they must not write a single grad entry.
  model_->zero_grad();
  run_attack_batched(AttackKind::kIfgsm, *model_, sub.images, sub.labels,
                     AttackParams{.epsilon = 0.02f, .iterations = 3});
  for (nn::Parameter* p : model_->parameters()) {
    for (float g : p->grad.flat()) ASSERT_EQ(g, 0.0f);
  }
}

TEST_F(AttackTest, FgsmPerturbationIsEpsilonSign) {
  data::Dataset sub = split_->test.take(4);
  const float eps = 0.05f;
  Tensor adv =
      run_attack_batched(AttackKind::kIfgsm, *model_, sub.images, sub.labels,
                         AttackParams{.epsilon = eps, .iterations = 1});
  // every pixel moved by 0, +eps or -eps (modulo [0,1] clamping)
  for (Index i = 0; i < adv.numel(); ++i) {
    const float d = adv[i] - sub.images[i];
    const bool clamped = adv[i] == 0.0f || adv[i] == 1.0f;
    if (!clamped) {
      EXPECT_TRUE(std::fabs(d) < 1e-6 || std::fabs(std::fabs(d) - eps) < 1e-6)
          << "delta " << d;
    }
  }
}

TEST_F(AttackTest, FgsmReducesAccuracy) {
  data::Dataset sub = split_->test.take(60);
  const double clean = nn::evaluate_accuracy(*model_, sub.images, sub.labels);
  Tensor adv = run_attack_batched(
      AttackKind::kIfgsm, *model_, sub.images, sub.labels,
      AttackParams{.epsilon = 0.1f, .iterations = 1});
  const double attacked = nn::evaluate_accuracy(*model_, adv, sub.labels);
  EXPECT_LT(attacked, clean - 0.2);
}

TEST_F(AttackTest, IfgsmStrongerThanSingleStep) {
  data::Dataset sub = split_->test.take(60);
  Tensor one = run_attack_batched(
      AttackKind::kIfgsm, *model_, sub.images, sub.labels,
      AttackParams{.epsilon = 0.02f, .iterations = 1});
  Tensor many = run_attack_batched(
      AttackKind::kIfgsm, *model_, sub.images, sub.labels,
      AttackParams{.epsilon = 0.02f, .iterations = 12});
  EXPECT_LE(nn::evaluate_accuracy(*model_, many, sub.labels),
            nn::evaluate_accuracy(*model_, one, sub.labels));
}

TEST_F(AttackTest, AdversarialImagesStayInPixelDomain) {
  data::Dataset sub = split_->test.take(20);
  for (AttackKind kind :
       {AttackKind::kIfgm, AttackKind::kIfgsm, AttackKind::kDeepFool}) {
    Tensor adv = run_attack_batched(kind, *model_, sub.images, sub.labels,
                                    paper_params(kind, "lenet5"));
    EXPECT_GE(tensor::min_value(adv), 0.0f) << attack_name(kind);
    EXPECT_LE(tensor::max_value(adv), 1.0f) << attack_name(kind);
  }
}

TEST_F(AttackTest, IfgsmRespectsTotalEpsilonBudget) {
  data::Dataset sub = split_->test.take(10);
  const AttackParams p{.epsilon = 0.02f, .iterations = 12};
  Tensor adv = run_attack_batched(AttackKind::kIfgsm, *model_, sub.images,
                                  sub.labels, p);
  const float budget =
      p.epsilon * static_cast<float>(p.iterations) + 1e-5f;
  for (Index i = 0; i < adv.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - sub.images[i]), budget);
  }
}

TEST_F(AttackTest, DeepFoolFlipsPredictions) {
  data::Dataset sub = split_->test.take(40);
  DeepFoolResult r = deepfool(*model_, sub.images, sub.labels,
                              AttackParams{.epsilon = 0.02f, .iterations = 10});
  const std::vector<int> clean_pred = nn::predict(*model_, sub.images);
  const std::vector<int> adv_pred = nn::predict(*model_, r.adversarial);
  int correct_clean = 0, flipped = 0;
  for (std::size_t i = 0; i < sub.labels.size(); ++i) {
    if (clean_pred[i] != sub.labels[i]) continue;
    ++correct_clean;
    if (adv_pred[i] != sub.labels[i]) ++flipped;
  }
  ASSERT_GT(correct_clean, 10);
  // DeepFool runs until the boundary; most correctly-classified samples
  // must flip.
  EXPECT_GT(static_cast<double>(flipped) / correct_clean, 0.5);
}

TEST_F(AttackTest, DeepFoolPerturbationsSmallerThanIfgsm) {
  // The paper: "In practice Deepfool is found to produce smaller
  // perturbations than the original IFGSM".
  data::Dataset sub = split_->test.take(30);
  Tensor adv_if = run_attack_batched(
      AttackKind::kIfgsm, *model_, sub.images, sub.labels,
      paper_params(AttackKind::kIfgsm, "lenet5"));
  Tensor adv_df = run_attack_batched(
      AttackKind::kDeepFool, *model_, sub.images, sub.labels,
      paper_params(AttackKind::kDeepFool, "lenet5"));
  PerturbationStats s_if = perturbation_stats(sub.images, adv_if);
  PerturbationStats s_df = perturbation_stats(sub.images, adv_df);
  EXPECT_LT(s_df.mean_l2, s_if.mean_l2);
}

TEST_F(AttackTest, DeepFoolReportsIterationsAndNorms) {
  data::Dataset sub = split_->test.take(5);
  DeepFoolResult r = deepfool(*model_, sub.images, sub.labels,
                              AttackParams{.epsilon = 0.02f, .iterations = 6});
  ASSERT_EQ(r.iterations_used.size(), 5u);
  ASSERT_EQ(r.perturbation_l2.size(), 5u);
  for (int it : r.iterations_used) {
    EXPECT_GE(it, 0);
    EXPECT_LE(it, 6);
  }
  for (float l2 : r.perturbation_l2) EXPECT_GE(l2, 0.0f);
}

TEST_F(AttackTest, BatchedAttackMatchesPerSample) {
  // Batched IFGM agrees with attacking each sample alone up to float
  // rounding, not bit for bit: the loss gradient is scaled by 1/N and
  // rescaled by N, which is exact only for a power-of-two N (here N = 3).
  data::Dataset sub = split_->test.take(3);
  const AttackParams p{.epsilon = 0.5f, .iterations = 2};
  Tensor batched = run_attack_batched(AttackKind::kIfgm, *model_, sub.images,
                                      sub.labels, p);
  for (Index s = 0; s < 3; ++s) {
    Tensor one = tensor::slice_batch(sub.images, s);
    std::vector<Index> dims = {1};
    for (Index d : one.shape().dims()) dims.push_back(d);
    Tensor single = run_attack_batched(
        AttackKind::kIfgm, *model_, one.reshaped(tensor::Shape{dims}),
        {sub.labels[static_cast<std::size_t>(s)]}, p);
    Tensor expected = tensor::slice_batch(batched, s);
    Tensor got = tensor::slice_batch(single, 0);
    for (Index i = 0; i < got.numel(); ++i) {
      ASSERT_NEAR(got[i], expected[i], 2e-4f);
    }
  }
}

TEST(AttackParamsTest, Table1Values) {
  AttackParams p = paper_params(AttackKind::kIfgsm, "lenet5");
  EXPECT_FLOAT_EQ(p.epsilon, 0.02f);
  EXPECT_EQ(p.iterations, 12);
  p = paper_params(AttackKind::kIfgm, "lenet5");
  EXPECT_FLOAT_EQ(p.epsilon, 10.0f);
  EXPECT_EQ(p.iterations, 5);
  p = paper_params(AttackKind::kIfgm, "cifarnet");
  EXPECT_FLOAT_EQ(p.epsilon, 0.02f);
  EXPECT_EQ(p.iterations, 12);
  p = paper_params(AttackKind::kDeepFool, "lenet5");
  EXPECT_FLOAT_EQ(p.epsilon, 0.01f);
  EXPECT_EQ(p.iterations, 5);
  p = paper_params(AttackKind::kDeepFool, "cifarnet");
  EXPECT_EQ(p.iterations, 3);
  EXPECT_THROW(paper_params(AttackKind::kIfgsm, "alexnet"),
               std::invalid_argument);
}

TEST(AttackNames, RoundTrip) {
  for (AttackKind k :
       {AttackKind::kIfgm, AttackKind::kIfgsm, AttackKind::kDeepFool}) {
    EXPECT_EQ(attack_from_name(attack_name(k)), k);
  }
  EXPECT_THROW(attack_from_name("pgd"), std::invalid_argument);
  // Single-step FGSM/FGM are IFGSM/IFGM with iterations = 1, not kinds.
  EXPECT_THROW(attack_from_name("fgsm"), std::invalid_argument);
  EXPECT_THROW(attack_from_name("fgm"), std::invalid_argument);
}

TEST(PerturbationStatsTest, KnownValues) {
  Tensor clean({1, 4}, std::vector<float>{0, 0, 0, 0});
  Tensor adv({1, 4}, std::vector<float>{0.3f, -0.4f, 0, 0});
  PerturbationStats s = perturbation_stats(clean, adv);
  EXPECT_NEAR(s.mean_l2, 0.5, 1e-6);
  EXPECT_NEAR(s.mean_linf, 0.4, 1e-6);
  EXPECT_NEAR(s.mean_l0_fraction, 0.5, 1e-6);
  EXPECT_THROW(perturbation_stats(clean, Tensor({1, 3})),
               std::invalid_argument);
}

TEST(AttackValidation, RejectsBadInputs) {
  nn::Sequential m = models::make_lenet5_small(5);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 6);
  EXPECT_THROW(
      run_attack_batched(AttackKind::kIfgsm, m, x, {0}, AttackParams{}),
      std::invalid_argument);
  EXPECT_THROW(run_attack_batched(
                   AttackKind::kIfgsm, m, x, {0, 1},
                   AttackParams{.epsilon = -1.0f, .iterations = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      deepfool(m, x, {0, 1}, AttackParams{.epsilon = 0.01f, .iterations = 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace con::attacks
