#include <gtest/gtest.h>

#include <cmath>

#include "compress/finetune.h"
#include "compress/pruner.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::compress {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

nn::Sequential tiny_linear_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m("tiny");
  m.emplace<nn::Linear>(10, 10, rng, "fc");
  return m;
}

TEST(DnsPruner, ReachesTargetDensity) {
  nn::Sequential m = tiny_linear_model(1);
  DnsPruner pruner(m, DnsConfig{.target_density = 0.3});
  EXPECT_NEAR(pruner.density(), 0.3, 0.02);
  EXPECT_NEAR(m.density(), 0.3, 0.02);
}

TEST(DnsPruner, FullDensityKeepsEverything) {
  nn::Sequential m = tiny_linear_model(2);
  DnsPruner pruner(m, DnsConfig{.target_density = 1.0});
  EXPECT_DOUBLE_EQ(pruner.density(), 1.0);
}

TEST(DnsPruner, PrunesSmallestMagnitudes) {
  nn::Sequential m = tiny_linear_model(3);
  nn::Parameter* w = m.parameters()[0];
  // Plant known magnitudes: indices 0..99 get magnitude i+1.
  w->edit([](Tensor& v, Tensor&) {
    for (Index i = 0; i < 100; ++i) {
      v[i] = (i % 2 ? 1.0f : -1.0f) * static_cast<float>(i + 1);
    }
  });
  DnsPruner pruner(m, DnsConfig{.target_density = 0.5});
  // the 50 smallest magnitudes (indices 0..49) must be masked
  for (Index i = 0; i < 50; ++i) EXPECT_EQ(w->mask()[i], 0.0f) << i;
  for (Index i = 50; i < 100; ++i) EXPECT_EQ(w->mask()[i], 1.0f) << i;
}

TEST(DnsPruner, BiasesNeverPruned) {
  nn::Sequential m = tiny_linear_model(4);
  DnsPruner pruner(m, DnsConfig{.target_density = 0.1});
  nn::Parameter* bias = m.parameters()[1];
  ASSERT_FALSE(bias->compressible);
  EXPECT_FALSE(bias->has_mask());
}

TEST(DnsPruner, RecoveryRestoresGrownWeights) {
  nn::Sequential m = tiny_linear_model(5);
  nn::Parameter* w = m.parameters()[0];
  w->edit([](Tensor& v, Tensor&) {
    for (Index i = 0; i < 100; ++i) v[i] = static_cast<float>(i + 1) * 0.01f;
  });
  DnsPruner pruner(m, DnsConfig{.target_density = 0.5, .hysteresis = 0.0});
  ASSERT_EQ(w->mask()[0], 0.0f);
  // weight 0 grows past everything; next update must restore it (DNS)
  w->edit([](Tensor& v, Tensor&) { v[0] = 100.0f; });
  pruner.update_masks();
  EXPECT_EQ(w->mask()[0], 1.0f);
}

TEST(DnsPruner, OneShotNeverRecovers) {
  nn::Sequential m = tiny_linear_model(6);
  nn::Parameter* w = m.parameters()[0];
  w->edit([](Tensor& v, Tensor&) {
    for (Index i = 0; i < 100; ++i) v[i] = static_cast<float>(i + 1) * 0.01f;
  });
  DnsPruner pruner(m, DnsConfig{.target_density = 0.5,
                                .hysteresis = 0.0,
                                .allow_recovery = false});
  ASSERT_EQ(w->mask()[0], 0.0f);
  w->edit([](Tensor& v, Tensor&) { v[0] = 100.0f; });
  pruner.update_masks();
  EXPECT_EQ(w->mask()[0], 0.0f);  // Han-style: pruned stays pruned
}

TEST(DnsPruner, HysteresisKeepsBandStable) {
  nn::Sequential m = tiny_linear_model(7);
  nn::Parameter* w = m.parameters()[0];
  w->edit([](Tensor& v, Tensor&) {
    for (Index i = 0; i < 100; ++i) v[i] = static_cast<float>(i + 1) * 0.01f;
  });
  DnsPruner pruner(m, DnsConfig{.target_density = 0.5, .hysteresis = 0.2});
  // A pruned weight just above α but inside the band must stay pruned.
  // α ≈ 0.50; put weight 10 (pruned) at 1.05·α — inside [α, 1.2α].
  ASSERT_EQ(w->mask()[10], 0.0f);
  w->edit([](Tensor& v, Tensor&) { v[10] = 0.50f * 1.05f; });
  pruner.update_masks();
  EXPECT_EQ(w->mask()[10], 0.0f);
  // ...and a kept weight in the band stays kept.
  ASSERT_EQ(w->mask()[90], 1.0f);
  w->edit([](Tensor& v, Tensor&) { v[90] = 0.50f * 1.05f; });
  pruner.update_masks();
  EXPECT_EQ(w->mask()[90], 1.0f);
}

TEST(DnsPruner, InvalidConfigThrows) {
  nn::Sequential m = tiny_linear_model(8);
  EXPECT_THROW(DnsPruner(m, DnsConfig{.target_density = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(DnsPruner(m, DnsConfig{.target_density = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      DnsPruner(m, DnsConfig{.target_density = 0.5, .hysteresis = -0.1}),
      std::invalid_argument);
}

TEST(DnsPruner, MaskedWeightsStillReceiveGradient) {
  // DNS's defining property: the optimizer keeps updating pruned weights.
  nn::Sequential m = tiny_linear_model(9);
  nn::Parameter* w = m.parameters()[0];
  DnsPruner pruner(m, DnsConfig{.target_density = 0.5});
  Tensor x = random_batch(Shape{4, 10}, 10);
  std::vector<int> labels = {0, 1, 2, 3};
  // pick a masked index
  Index masked = -1;
  for (Index i = 0; i < w->mask().numel(); ++i) {
    if (w->mask()[i] == 0.0f) {
      masked = i;
      break;
    }
  }
  ASSERT_GE(masked, 0);
  m.zero_grad();
  Tensor logits = m.forward(x, true);
  nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);
  // gradient at the masked position is generally nonzero
  EXPECT_NE(w->grad[masked], 0.0f);
}

// Property sweep over target densities: the pruner must land within
// rounding distance of any requested density.
class DensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DensitySweep, AchievedDensityMatchesTarget) {
  nn::Sequential m = models::make_lenet5_small(11);
  DnsPruner pruner(m, DnsConfig{.target_density = GetParam()});
  EXPECT_NEAR(pruner.density(), GetParam(), 0.03);
}

INSTANTIATE_TEST_SUITE_P(Grid, DensitySweep,
                         ::testing::Values(1.0, 0.8, 0.6, 0.4, 0.2, 0.1,
                                           0.05));

TEST(PruneToDensity, ProducesIndependentCopy) {
  nn::Sequential base = models::make_lenet5_small(12);
  nn::Sequential pruned = prune_to_density(base, 0.4);
  EXPECT_NEAR(pruned.density(), 0.4, 0.03);
  EXPECT_DOUBLE_EQ(base.density(), 1.0);
  EXPECT_NE(pruned.name(), base.name());
}

TEST(MakePrunedModel, FineTuningKeepsDensityAndImprovesLoss) {
  nn::Sequential base = models::make_lenet5_small(13);
  con::testing::Tensor imgs = random_batch(Shape{64, 1, 28, 28}, 14);
  std::vector<int> labels;
  for (int i = 0; i < 64; ++i) labels.push_back(i % 10);
  data::Dataset train{imgs, labels};

  // Train the base a little so pruning has structure to work with.
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(base, imgs, labels, tc);

  FineTuneConfig ft{.epochs = 2, .batch_size = 16};
  nn::Sequential pruned = make_pruned_model(base, train, 0.5, ft);
  EXPECT_NEAR(pruned.density(), 0.5, 0.05);
  // Fine-tuned pruned model should fit the train set better than a fresh
  // unfine-tuned pruned copy.
  nn::Sequential cold = prune_to_density(base, 0.5);
  EXPECT_LT(nn::evaluate_loss(pruned, imgs, labels),
            nn::evaluate_loss(cold, imgs, labels) + 1e-6);
}

TEST(MakePrunedModel, ZeroEpochsSkipsTraining) {
  nn::Sequential base = models::make_lenet5_small(15);
  data::Dataset train{random_batch(Shape{8, 1, 28, 28}, 16),
                      {0, 1, 2, 3, 4, 5, 6, 7}};
  FineTuneConfig ft{.epochs = 0};
  nn::Sequential pruned = make_pruned_model(base, train, 0.3, ft);
  EXPECT_NEAR(pruned.density(), 0.3, 0.05);
}

}  // namespace
}  // namespace con::compress
