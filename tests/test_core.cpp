#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "core/cdf.h"
#include "core/scenario.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "core/transfer.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "test_helpers.h"

namespace con::core {
namespace {

using con::testing::random_batch;
using tensor::Shape;
using tensor::Tensor;

TEST(ScenarioTest, NamesAndDescriptions) {
  EXPECT_EQ(scenario_name(Scenario::kCompToComp), "COMP->COMP");
  EXPECT_EQ(scenario_name(Scenario::kFullToComp), "FULL->COMP");
  EXPECT_EQ(scenario_name(Scenario::kCompToFull), "COMP->FULL");
  for (Scenario s : {Scenario::kCompToComp, Scenario::kFullToComp,
                     Scenario::kCompToFull}) {
    EXPECT_FALSE(scenario_description(s).empty());
  }
}

TEST(CdfTest, UniformDataIsLinear) {
  std::vector<float> vals;
  for (int i = 0; i <= 1000; ++i) vals.push_back(static_cast<float>(i) / 1000);
  Cdf cdf = compute_cdf(vals, 11);
  EXPECT_FLOAT_EQ(cdf.xs.front(), 0.0f);
  EXPECT_FLOAT_EQ(cdf.xs.back(), 1.0f);
  EXPECT_NEAR(cdf_at(cdf, 0.5f), 0.5, 0.01);
  EXPECT_NEAR(cdf_at(cdf, 0.25f), 0.25, 0.01);
  EXPECT_DOUBLE_EQ(cdf.ps.back(), 1.0);
}

TEST(CdfTest, PointMassJumps) {
  std::vector<float> vals(100, 0.0f);
  vals.resize(200, 1.0f);
  Cdf cdf = compute_cdf(vals, 21);
  EXPECT_NEAR(cdf_at(cdf, 0.0f), 0.5, 0.03);
  // away from the final grid cell (where interpolation smears the jump)
  // the CDF stays flat at 0.5
  EXPECT_NEAR(cdf_at(cdf, 0.9f), 0.5, 0.03);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 1.0f), 1.0);
}

TEST(CdfTest, OutOfRangeQueriesClamp) {
  Cdf cdf = compute_cdf({1.0f, 2.0f, 3.0f}, 5);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, -10.0f), cdf.ps.front());
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 10.0f), 1.0);
}

TEST(CdfTest, RejectsDegenerateInput) {
  EXPECT_THROW(compute_cdf({}, 5), std::invalid_argument);
  EXPECT_THROW(compute_cdf({1.0f}, 1), std::invalid_argument);
}

TEST(CdfTest, QuantisedWeightsShowClipping) {
  // The Fig. 6 phenomenon in miniature: a 4-bit model's weight CDF must
  // reach 1.0 at the clip bound, while the float model's extends past it.
  nn::Sequential base = models::make_lenet5_small(21);
  // widen some weights beyond the 4-bit range so clipping has an effect
  nn::Parameter* w = base.parameters()[0];
  w->edit([](Tensor& v, Tensor&) {
    for (tensor::Index i = 0; i < 10; ++i) v[i] = 2.0f;
  });
  nn::Sequential q = compress::quantize_model(
      base, compress::QuantizeOptions{
                .format = compress::FixedPointFormat::paper_format(4)});
  std::vector<float> wq = gather_effective_weights(q);
  std::vector<float> wf = gather_effective_weights(base);
  const float qmax = *std::max_element(wq.begin(), wq.end());
  const float fmax = *std::max_element(wf.begin(), wf.end());
  EXPECT_LE(qmax, 0.875f + 1e-6f);
  EXPECT_GT(fmax, 1.0f);
}

TEST(CdfTest, GatherActivationsCoversAllLayers) {
  nn::Sequential m = models::make_lenet5_small(22);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 23);
  std::vector<float> acts = gather_activations(m, x);
  // conv1 out (2*4*28*28) is already bigger than this lower bound; we only
  // check the collection is non-trivial and finite.
  EXPECT_GT(acts.size(), 10000u);
  for (float a : acts) ASSERT_TRUE(std::isfinite(a));
}

TEST(PreferredDensity, PicksKneePoint) {
  const std::vector<double> densities = {1.0, 0.8, 0.6, 0.4, 0.2, 0.1};
  const std::vector<double> accs = {0.90, 0.90, 0.89, 0.89, 0.80, 0.50};
  // tolerance 0.02: densities down to 0.4 hold accuracy; 0.2 drops.
  EXPECT_DOUBLE_EQ(preferred_density(densities, accs, 0.90), 0.4);
}

TEST(PreferredDensity, DenseWhenEverythingDrops) {
  const std::vector<double> densities = {1.0, 0.5};
  const std::vector<double> accs = {0.9, 0.1};
  EXPECT_DOUBLE_EQ(preferred_density(densities, accs, 0.9), 1.0);
}

TEST(PreferredDensity, UnsortedInputHandled) {
  const std::vector<double> densities = {0.1, 1.0, 0.5};
  const std::vector<double> accs = {0.2, 0.9, 0.9};
  EXPECT_DOUBLE_EQ(preferred_density(densities, accs, 0.9), 0.5);
}

TEST(PreferredDensity, RejectsBadInput) {
  EXPECT_THROW(preferred_density({}, {}, 0.9), std::invalid_argument);
  EXPECT_THROW(preferred_density({1.0}, {0.9, 0.8}, 0.9),
               std::invalid_argument);
}

TEST(Grids, PaperGridsAreSane) {
  auto d = paper_density_grid();
  EXPECT_EQ(d.front(), 1.0);
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_LT(d[i], d[i - 1]);
  auto b = paper_bitwidth_grid();
  EXPECT_EQ(b.front(), 4);
  EXPECT_EQ(b.back(), 32);
}

// End-to-end core tests on a tiny trained study. Training happens once.
class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest -j runs each test in its own process, and every process runs
    // this fixture; a shared directory would let one process remove_all the
    // checkpoint cache another is mid-way through reading. Keep the
    // intra-process cache-hit semantics (CheckpointCacheRoundTrips) but
    // isolate processes from each other.
    artifacts_dir_ =
        "/tmp/con_core_test_artifacts." + std::to_string(getpid());
    setenv("CON_ARTIFACTS_DIR", artifacts_dir_.c_str(), 1);
    StudyConfig cfg;
    cfg.network = "lenet5-small";
    cfg.train_size = 1200;
    cfg.test_size = 150;
    cfg.attack_size = 50;
    cfg.baseline_epochs = 6;
    cfg.finetune.epochs = 1;
    study_ = new Study(cfg);
    study_->baseline();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
    std::filesystem::remove_all(artifacts_dir_);
    unsetenv("CON_ARTIFACTS_DIR");
  }
  static Study* study_;
  static std::string artifacts_dir_;
};

Study* StudyTest::study_ = nullptr;
std::string StudyTest::artifacts_dir_;

TEST_F(StudyTest, BaselineLearns) {
  EXPECT_GT(study_->baseline_accuracy(), 0.7);
}

TEST_F(StudyTest, CheckpointCacheRoundTrips) {
  // A second Study with the same config must load the cached baseline and
  // agree exactly.
  Study again(study_->config());
  auto pa = study_->baseline().parameters();
  auto pb = again.baseline().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (tensor::Index j = 0; j < pa[i]->value().numel(); ++j) {
      ASSERT_EQ(pa[i]->value()[j], pb[i]->value()[j]);
    }
  }
}

TEST_F(StudyTest, AttackSetIsTestPrefix) {
  EXPECT_EQ(study_->attack_set().size(), 50);
  EXPECT_EQ(study_->attack_set().labels[0], study_->test_set().labels[0]);
}

TEST_F(StudyTest, ScenarioEvaluationSelfConsistency) {
  // With compressed == an exact copy of the baseline, all three scenarios
  // coincide (same weights, same gradients).
  nn::Sequential copy = study_->baseline().clone();
  const attacks::AttackParams params{.epsilon = 0.02f, .iterations = 4};
  ScenarioPoint p = evaluate_scenarios(
      study_->baseline(), copy, attacks::AttackKind::kIfgsm, params,
      study_->attack_set(),
      study_
          ->adversarial(study_->baseline_artifact(),
                        attacks::AttackKind::kIfgsm, params)
          .images);
  EXPECT_DOUBLE_EQ(p.comp_to_comp, p.comp_to_full);
  EXPECT_DOUBLE_EQ(p.comp_to_comp, p.full_to_comp);
  EXPECT_LT(p.comp_to_comp, p.base_accuracy);
}

TEST_F(StudyTest, AdversarialAccuracyBelowClean) {
  nn::Sequential& base = study_->baseline();
  const data::Dataset& probes = study_->attack_set();
  const Tensor adv = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, base, probes.images, probes.labels,
      attacks::AttackParams{.epsilon = 0.03f, .iterations = 6});
  const double clean =
      nn::evaluate_accuracy(base, probes.images, probes.labels);
  EXPECT_LT(nn::evaluate_accuracy(base, adv, probes.labels), clean);
}

TEST_F(StudyTest, DeepFoolRunsOnASubsetLackingTheTopClass) {
  // The first 8 test samples carry labels 0..7; their class count is still
  // the generator's 10, the width of the model's logits, which DeepFool
  // checks ("class count mismatch").
  const data::Dataset subset = study_->test_set().take(8);
  ASSERT_EQ(std::count(subset.labels.begin(), subset.labels.end(), 9), 0);
  const attacks::AttackParams params =
      attacks::paper_params(attacks::AttackKind::kDeepFool, "lenet5-small");
  const Tensor baseline_adv = attacks::run_attack_batched(
      attacks::AttackKind::kDeepFool, study_->baseline(), subset.images,
      subset.labels, params, subset.num_classes());
  nn::Sequential copy = study_->baseline().clone();
  const ScenarioPoint p = evaluate_scenarios(
      study_->baseline(), copy, attacks::AttackKind::kDeepFool, params, subset,
      baseline_adv);
  EXPECT_DOUBLE_EQ(p.comp_to_comp, p.full_to_comp);
}

TEST_F(StudyTest, TransferRateBetweenIdenticalModelsIsTotal) {
  nn::Sequential copy = study_->baseline().clone();
  const double rate = transfer_rate(
      study_->baseline(), copy,
      study_
          ->adversarial(
              study_->baseline_artifact(), attacks::AttackKind::kIfgsm,
              attacks::AttackParams{.epsilon = 0.05f, .iterations = 6})
          .images,
      study_->attack_set());
  EXPECT_DOUBLE_EQ(rate, 1.0);
}

TEST_F(StudyTest, PrunedFamilySweepProducesOrderedDensities) {
  auto family = build_pruned_family(*study_, {1.0, 0.5});
  ASSERT_EQ(family.size(), 2u);
  EXPECT_NEAR(family[0].model.density(), 1.0, 1e-9);
  EXPECT_NEAR(family[1].model.density(), 0.5, 0.05);
  auto points = sweep_scenarios(
      *study_, family, attacks::AttackKind::kIfgsm,
      attacks::AttackParams{.epsilon = 0.02f, .iterations = 4});
  ASSERT_EQ(points.size(), 2u);
  for (const ScenarioPoint& p : points) {
    EXPECT_GE(p.base_accuracy, 0.0);
    EXPECT_LE(p.base_accuracy, 1.0);
    // attacks hurt: scenario 1 is white-box on the evaluated model
    EXPECT_LE(p.comp_to_comp, p.base_accuracy + 1e-9);
  }
}

TEST_F(StudyTest, QuantizedFamilySweep) {
  auto family = build_quantized_family(*study_, {4, 32});
  ASSERT_EQ(family.size(), 2u);
  // 32-bit fixed point behaves like the float baseline
  const double acc32 = nn::evaluate_accuracy(
      family[1].model, study_->test_set().images, study_->test_set().labels);
  EXPECT_NEAR(acc32, study_->baseline_accuracy(), 0.08);
}

TEST_F(StudyTest, FreshBaselinesDifferButBothLearn) {
  nn::Sequential a = study_->trained_baseline(100).model;
  nn::Sequential b = study_->trained_baseline(200).model;
  const double acc_a = nn::evaluate_accuracy(a, study_->test_set().images,
                                             study_->test_set().labels);
  const double acc_b = nn::evaluate_accuracy(b, study_->test_set().images,
                                             study_->test_set().labels);
  EXPECT_GT(acc_a, 0.6);
  EXPECT_GT(acc_b, 0.6);
  EXPECT_NE(a.parameters()[0]->value()[0], b.parameters()[0]->value()[0]);
}

TEST(StudyConfigTest, AttackSizeValidated) {
  StudyConfig cfg;
  cfg.train_size = 50;
  cfg.test_size = 20;
  cfg.attack_size = 30;
  EXPECT_THROW(Study s(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace con::core
