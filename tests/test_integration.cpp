// End-to-end integration tests: miniature versions of the paper's full
// workflow, exercising every subsystem together — data synthesis, training,
// compression (both families), attacks, the three-scenario taxonomy and
// checkpointing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "compress/finetune.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "core/transfer.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace con {
namespace {

// One shared mini-study for the whole file (training dominates runtime).
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest -j runs every discovered test in its own process; a shared
    // artifacts path would race one process's TearDown remove_all against
    // another's checkpoint write, so each process gets its own directory.
    artifacts_dir_ = "/tmp/con_integration_artifacts." + std::to_string(getpid());
    setenv("CON_ARTIFACTS_DIR", artifacts_dir_.c_str(), 1);
    core::StudyConfig cfg;
    cfg.network = "lenet5-small";
    cfg.train_size = 1500;
    cfg.test_size = 200;
    cfg.attack_size = 60;
    cfg.baseline_epochs = 6;
    cfg.finetune.epochs = 2;
    study_ = new core::Study(cfg);
    study_->baseline();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
    std::filesystem::remove_all(artifacts_dir_);
    unsetenv("CON_ARTIFACTS_DIR");
  }
  static core::Study* study_;
  static std::string artifacts_dir_;
};

core::Study* IntegrationTest::study_ = nullptr;
std::string IntegrationTest::artifacts_dir_;

TEST_F(IntegrationTest, FullPruningPipelineReproducesHeadlineFinding) {
  // The paper's headline: adversarial samples transfer between compressed
  // and uncompressed models at moderate sparsity.
  const core::ModelArtifact pruned = study_->pruned_variant(0.4);
  core::ScenarioPoint p = core::evaluate_scenarios_stored(
      *study_, pruned, attacks::AttackKind::kIfgsm,
      attacks::paper_params(attacks::AttackKind::kIfgsm, "lenet5"));
  // the compressed model still works...
  EXPECT_GT(p.base_accuracy, 0.6);
  // ...and attacks cross the compression boundary in both directions
  EXPECT_LT(p.full_to_comp, p.base_accuracy - 0.3);
  EXPECT_LT(p.comp_to_full, study_->baseline_accuracy() - 0.3);
}

TEST_F(IntegrationTest, QuantisedPipelineShowsClippingDefence) {
  const auto params =
      attacks::paper_params(attacks::AttackKind::kIfgsm, "lenet5");
  core::ScenarioPoint p4 = core::evaluate_scenarios_stored(
      *study_, study_->quantized_variant(4), attacks::AttackKind::kIfgsm,
      params);
  core::ScenarioPoint p16 = core::evaluate_scenarios_stored(
      *study_, study_->quantized_variant(16), attacks::AttackKind::kIfgsm,
      params);
  // §4.2: lower integer precision weakens comp->full transfer (higher
  // adversarial accuracy on the baseline)
  EXPECT_GE(p4.comp_to_full + 0.02, p16.comp_to_full);
}

TEST_F(IntegrationTest, CompressedCheckpointRoundTripsThroughAttack) {
  // Vendor ships a pruned checkpoint; attacker reloads and attacks it. The
  // reloaded model must behave identically to the original.
  nn::Sequential pruned = compress::make_pruned_model(
      study_->baseline(), study_->train_set(), 0.3,
      study_->config().finetune);
  const std::string path = io::artifacts_dir() + "/integ_roundtrip.ckpt";
  io::save_model(pruned, path);
  nn::Sequential reloaded = models::make_lenet5_small(0);
  io::load_model_into(reloaded, path);

  const data::Dataset& probes = study_->attack_set();
  const auto params = attacks::AttackParams{.epsilon = 0.02f, .iterations = 6};
  tensor::Tensor adv_a = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, pruned, probes.images, probes.labels,
      params);
  tensor::Tensor adv_b = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, reloaded, probes.images, probes.labels,
      params);
  for (tensor::Index i = 0; i < adv_a.numel(); ++i) {
    ASSERT_EQ(adv_a[i], adv_b[i]);
  }
}

TEST_F(IntegrationTest, SweepGridMatchesFamilyOrder) {
  // A second study on the same store: the baseline is served from it, and
  // zero fine-tuning epochs keep the two prunes cheap.
  core::StudyConfig cfg = study_->config();
  cfg.finetune.epochs = 0;
  core::Study untuned(cfg);
  auto family = core::build_pruned_family(untuned, {1.0, 0.3});
  ASSERT_EQ(family.size(), 2u);
  EXPECT_NEAR(family[0].model.density(), 1.0, 1e-9);
  EXPECT_NEAR(family[1].model.density(), 0.3, 0.05);
  // names encode the density for artifact bookkeeping
  EXPECT_NE(family[1].model.name().find("0.300"), std::string::npos);
}

TEST_F(IntegrationTest, AttackSubsetIsDeterministicAcrossRuns) {
  // Reproducibility: rebuilding the study yields identical attack sets and
  // identical adversarial samples.
  core::Study again(study_->config());
  const data::Dataset& a = study_->attack_set();
  const data::Dataset& b = again.attack_set();
  ASSERT_EQ(a.size(), b.size());
  for (tensor::Index i = 0; i < a.images.numel(); ++i) {
    ASSERT_EQ(a.images[i], b.images[i]);
  }
  tensor::Tensor adv_a = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, study_->baseline(), a.images, a.labels,
      attacks::AttackParams{.epsilon = 0.02f, .iterations = 1});
  tensor::Tensor adv_b = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, again.baseline(), b.images, b.labels,
      attacks::AttackParams{.epsilon = 0.02f, .iterations = 1});
  for (tensor::Index i = 0; i < adv_a.numel(); ++i) {
    ASSERT_EQ(adv_a[i], adv_b[i]);
  }
}

}  // namespace
}  // namespace con
