// Tests for the study-domain derivation closures (src/core/artifacts.h):
// each config axis must re-address exactly the artifacts whose closure
// contains it, and store-backed studies must be reproducible — two cold
// stores built from the same config hold byte-identical objects.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/params.h"
#include "compress/fixed_point.h"
#include "core/artifacts.h"
#include "core/cross_init.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "data/synth_digits.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "test_helpers.h"

namespace con {
namespace {

using attacks::AttackKind;
using attacks::AttackParams;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

using con::testing::fresh_store_dir;

core::StudyConfig tiny_config() {
  core::StudyConfig cfg;
  cfg.network = "lenet5-small";
  cfg.train_size = 96;
  cfg.test_size = 48;
  cfg.attack_size = 12;
  cfg.baseline_epochs = 1;
  cfg.batch_size = 16;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 16;
  cfg.seed = 7;
  return cfg;
}

store::Hash fake_hash(const char* tag) { return store::hash_string(tag); }

// ------------------------------------------------ closure axis sensitivity

TEST(ArtifactClosures, SeedReaddressesTheWholeChain) {
  core::StudyConfig a = tiny_config();
  core::StudyConfig b = tiny_config();
  b.seed = 8;
  // The seed reaches the baseline through both the config and the init
  // state; use distinct init hashes the way a real run would.
  const store::Hash ds = fake_hash("dataset");
  const store::Hash drv_a =
      core::baseline_derivation(a, a.seed, fake_hash("init-7"), ds).hash();
  const store::Hash drv_b =
      core::baseline_derivation(b, b.seed, fake_hash("init-8"), ds).hash();
  EXPECT_NE(drv_a, drv_b);
  // Variant closures contain the baseline drv, so they move too.
  EXPECT_NE(core::pruned_derivation(a, drv_a, ds, 0.5, false).hash(),
            core::pruned_derivation(b, drv_b, ds, 0.5, false).hash());
}

TEST(ArtifactClosures, DensityReaddressesOneVariantOnly) {
  const core::StudyConfig cfg = tiny_config();
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash v50 =
      core::pruned_derivation(cfg, base, ds, 0.5, false).hash();
  const store::Hash v30 =
      core::pruned_derivation(cfg, base, ds, 0.3, false).hash();
  EXPECT_NE(v50, v30) << "density is a closure input of the pruned variant";
  EXPECT_NE(v50, core::pruned_derivation(cfg, base, ds, 0.5, true).hash())
      << "one-shot vs iterative pruning must not alias";
  // The baseline closure does not mention density: same baseline drv serves
  // both variants (that is the incremental-sweep property).
  EXPECT_NE(core::quantized_derivation(cfg, base, ds, 4, true).hash(),
            core::quantized_derivation(cfg, base, ds, 8, true).hash());
  EXPECT_NE(core::quantized_derivation(cfg, base, ds, 4, true).hash(),
            core::quantized_derivation(cfg, base, ds, 4, false).hash());
}

TEST(ArtifactClosures, EpsilonReaddressesCellsButNotCheckpoints) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");

  AttackParams p1{.epsilon = 0.1f, .iterations = 4};
  AttackParams p2{.epsilon = 0.2f, .iterations = 4};
  const store::Hash cell1 =
      core::transfer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                     p1, "cell")
          .hash();
  const store::Hash cell2 =
      core::transfer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                     p2, "cell")
          .hash();
  EXPECT_NE(cell1, cell2) << "epsilon is a closure input of the cell";
  EXPECT_NE(cell1,
            core::transfer_cell_derivation(base, variant, ds, 12,
                                           AttackKind::kIfgm, p1, "cell")
                .hash())
      << "the attack kind is a closure input of the cell";
  EXPECT_NE(cell1,
            core::transfer_cell_derivation(base, variant, ds, 24,
                                           AttackKind::kIfgsm, p1, "cell")
                .hash())
      << "the eval-subset size is a closure input of the cell";
  // ... while the checkpoints above know nothing about the attack: their
  // closures never see AttackParams, so the derivation factories do not even
  // accept them. Adversarial batches keyed off different sources differ.
  EXPECT_NE(core::adversarial_derivation(base, ds, 12, AttackKind::kIfgsm, p1,
                                         "adv")
                .hash(),
            core::adversarial_derivation(variant, ds, 12, AttackKind::kIfgsm,
                                         p1, "adv")
                .hash());
}

TEST(ArtifactClosures, TransferCellDistinguishesModelRoles) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash a = fake_hash("model-a");
  const store::Hash b = fake_hash("model-b");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  // Inputs are hashed as a sorted set, so role must come from attrs:
  // (baseline=a, variant=b) is a different cell than (baseline=b, variant=a).
  EXPECT_NE(core::transfer_cell_derivation(a, b, ds, 12, AttackKind::kIfgsm, p,
                                           "cell")
                .hash(),
            core::transfer_cell_derivation(b, a, ds, 12, AttackKind::kIfgsm, p,
                                           "cell")
                .hash());
}

TEST(Int8ArtifactClosures, IntegerCellsNeverAliasFloatCells) {
  // The deployed-int8 measurement is a different experiment from the
  // fake-quant float one: with byte-identical inputs and attack axes, the
  // two cells must live at different store addresses (distinct kind).
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  const auto f8 = compress::FixedPointFormat::paper_format(8);
  EXPECT_NE(core::transfer_cell_derivation(base, variant, ds, 12,
                                           AttackKind::kIfgsm, p, "cell",
                                           core::Int8Formats{f8, f8})
                .hash(),
            core::transfer_cell_derivation(base, variant, ds, 12,
                                           AttackKind::kIfgsm, p, "cell")
                .hash());
}

TEST(Int8ArtifactClosures, FormatAxesReaddressIntegerCells) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  const auto f8 = compress::FixedPointFormat::paper_format(8);
  const auto f4 = compress::FixedPointFormat::paper_format(4);
  const store::Hash cell =
      core::transfer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                     p, "cell", core::Int8Formats{f8, f8})
          .hash();
  EXPECT_NE(cell, core::transfer_cell_derivation(base, variant, ds, 12,
                                                 AttackKind::kIfgsm, p, "cell",
                                                 core::Int8Formats{f4, f8})
                      .hash())
      << "the weight format is a closure input of the integer cell";
  EXPECT_NE(cell, core::transfer_cell_derivation(base, variant, ds, 12,
                                                 AttackKind::kIfgsm, p, "cell",
                                                 core::Int8Formats{f8, f4})
                      .hash())
      << "the activation format is a closure input of the integer cell";
  // The attack axes keep re-addressing exactly as for float cells.
  AttackParams p2{.epsilon = 0.2f, .iterations = 4};
  EXPECT_NE(cell, core::transfer_cell_derivation(base, variant, ds, 12,
                                                 AttackKind::kIfgsm, p2, "cell",
                                                 core::Int8Formats{f8, f8})
                      .hash());
  EXPECT_NE(cell, core::transfer_cell_derivation(base, variant, ds, 12,
                                                 AttackKind::kIfgm, p, "cell",
                                                 core::Int8Formats{f8, f8})
                      .hash());
  // Role attrs still break the sorted-input-set symmetry.
  EXPECT_NE(cell, core::transfer_cell_derivation(variant, base, ds, 12,
                                                 AttackKind::kIfgsm, p, "cell",
                                                 core::Int8Formats{f8, f8})
                      .hash());
}

TEST(ArtifactClosures, DatasetHashIsContentSensitive) {
  data::SynthDigitsConfig dc;
  dc.train_size = 96;
  dc.test_size = 48;
  dc.seed = 7;
  const store::Hash h1 =
      core::dataset_content_hash(data::make_synth_digits(dc));
  EXPECT_EQ(h1, core::dataset_content_hash(data::make_synth_digits(dc)))
      << "the same generator config must hash identically";
  dc.seed = 8;
  EXPECT_NE(h1, core::dataset_content_hash(data::make_synth_digits(dc)));
}

TEST(ArtifactClosures, ScenarioPointRoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "/scenario_point_test.bin";
  core::ScenarioPoint p;
  p.base_accuracy = 0.9375;
  p.comp_to_comp = 1.0 / 3.0;
  p.full_to_comp = 0.1;
  p.comp_to_full = 0.0;
  core::save_scenario_point(p, path);
  const core::ScenarioPoint q = core::load_scenario_point(path);
  EXPECT_EQ(p.base_accuracy, q.base_accuracy);
  EXPECT_EQ(p.comp_to_comp, q.comp_to_comp);
  EXPECT_EQ(p.full_to_comp, q.full_to_comp);
  EXPECT_EQ(p.comp_to_full, q.comp_to_full);
  std::remove(path.c_str());
}

// ------------------------------------------------------- end-to-end store

TEST(StoredStudy, TwoColdStoresAreByteIdentical) {
  // Reproducibility acceptance: the same config realised into two separate
  // cold stores must produce the same objects with the same bytes.
  core::StudyConfig cfg1 = tiny_config();
  cfg1.store_dir = fresh_store_dir("e2e_a");
  core::StudyConfig cfg2 = tiny_config();
  cfg2.store_dir = fresh_store_dir("e2e_b");

  core::Study s1(cfg1);
  core::Study s2(cfg2);
  const core::ModelArtifact v1 = s1.pruned_variant(0.5);
  const core::ModelArtifact v2 = s2.pruned_variant(0.5);
  EXPECT_EQ(v1.drv, v2.drv);

  const std::vector<std::string> o1 = s1.store().list_objects();
  const std::vector<std::string> o2 = s2.store().list_objects();
  ASSERT_EQ(o1.size(), o2.size());
  for (std::size_t i = 0; i < o1.size(); ++i) {
    // Same filename (address) under different roots, same bytes.
    const std::string n1 = o1[i].substr(o1[i].rfind('/') + 1);
    const std::string n2 = o2[i].substr(o2[i].rfind('/') + 1);
    EXPECT_EQ(n1, n2);
    EXPECT_EQ(read_file(o1[i]), read_file(o2[i])) << n1;
  }
}

TEST(StoredStudy, SecondStudyIsServedFromTheStore) {
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir("e2e_hit");

  core::Study cold(cfg);
  nn::Sequential& trained = cold.baseline();
  const store::Hash cold_drv = cold.baseline_artifact().drv;

  core::Study warm(cfg);
  nn::Sequential& loaded = warm.baseline();
  EXPECT_EQ(warm.baseline_artifact().drv, cold_drv);
  EXPECT_EQ(io::model_state_hash(loaded).hex(),
            io::model_state_hash(trained).hex())
      << "a store hit must reproduce the trained state bit-exactly";
}

TEST(StoredStudy, FreshInitBaselineIsServedFromTheStore) {
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir("e2e_fresh");
  const core::ModelArtifact trained =
      core::Study(cfg).trained_baseline(1001);

  core::Study warm(cfg);
  const std::uint64_t hits0 = obs::counter("store.hit").value();
  const std::uint64_t misses0 = obs::counter("store.miss").value();
  const core::ModelArtifact loaded = warm.trained_baseline(1001);
  EXPECT_EQ(obs::counter("store.miss").value(), misses0);
  EXPECT_EQ(obs::counter("store.hit").value(), hits0 + 1);
  EXPECT_EQ(loaded.drv, trained.drv);
  const auto pa = trained.model.parameters();
  const auto pb = loaded.model.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value().numel(), pb[i]->value().numel());
    EXPECT_EQ(std::memcmp(pa[i]->value().data(), pb[i]->value().data(),
                          pa[i]->value().numel() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

void expect_same_point(const core::ScenarioPoint& a,
                       const core::ScenarioPoint& b, std::size_t member) {
  EXPECT_EQ(a.base_accuracy, b.base_accuracy) << "member " << member;
  EXPECT_EQ(a.comp_to_comp, b.comp_to_comp) << "member " << member;
  EXPECT_EQ(a.full_to_comp, b.full_to_comp) << "member " << member;
  EXPECT_EQ(a.comp_to_full, b.comp_to_full) << "member " << member;
}

TEST(StoredStudy, IntegerSweepMatchesItsCellsAndIsServedWarm) {
  // The int8 sweep and the single int8 cell share one realiser: computed
  // cold in two separate stores they agree member by member, and a second
  // Study on the sweep's store is served without a miss.
  core::StudyConfig cells_cfg = tiny_config();
  cells_cfg.store_dir = fresh_store_dir("int8_cells");
  core::StudyConfig sweep_cfg = tiny_config();
  sweep_cfg.store_dir = fresh_store_dir("int8_sweep");
  const AttackParams params{.epsilon = 0.02f, .iterations = 2};

  core::Study cells_study(cells_cfg);
  std::vector<core::ModelArtifact> cells_family =
      core::build_quantized_family(cells_study, {4, 8});
  core::Study sweep_study(sweep_cfg);
  std::vector<core::ModelArtifact> family =
      core::build_quantized_family(sweep_study, {4, 8});
  const std::vector<core::ScenarioPoint> cold = core::sweep_scenarios_integer(
      sweep_study, family, AttackKind::kIfgsm, params);
  ASSERT_EQ(cold.size(), 2u);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_same_point(core::evaluate_scenarios_integer_stored(
                          cells_study, cells_family[i], AttackKind::kIfgsm,
                          params),
                      cold[i], i);
  }
  EXPECT_TRUE(std::filesystem::is_symlink(
      sweep_cfg.store_dir + "/roots/sweep-int8-lenet5-small-ifgsm"));

  const std::uint64_t misses = obs::counter("store.miss").value();
  core::Study warm(sweep_cfg);
  std::vector<core::ModelArtifact> warm_family =
      core::build_quantized_family(warm, {4, 8});
  const std::vector<core::ScenarioPoint> served =
      core::sweep_scenarios_integer(warm, warm_family, AttackKind::kIfgsm,
                                    params);
  EXPECT_EQ(obs::counter("store.miss").value(), misses);
  ASSERT_EQ(served.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_same_point(served[i], cold[i], i);
  }
}

TEST(StoredStudy, WarmCrossInitCraftsNothing) {
  // Both trainings and both directions' DeepFool batches are store
  // derivations: a second run on the store crafts no attack chunk and
  // reports the same rates.
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir("xinit");
  const AttackParams params =
      attacks::paper_params(AttackKind::kDeepFool, cfg.network);
  core::Study cold(cfg);
  const core::CrossInitResult first = core::cross_init_transferability(
      cold, AttackKind::kDeepFool, params, 1001, 2002);

  const std::uint64_t chunks = obs::counter("attack.chunks").value();
  core::Study warm(cfg);
  const core::CrossInitResult second = core::cross_init_transferability(
      warm, AttackKind::kDeepFool, params, 1001, 2002);
  EXPECT_EQ(obs::counter("attack.chunks").value(), chunks);
  EXPECT_EQ(second.accuracy_a, first.accuracy_a);
  EXPECT_EQ(second.accuracy_b, first.accuracy_b);
  EXPECT_EQ(second.transfer_a_to_b, first.transfer_a_to_b);
  EXPECT_EQ(second.transfer_b_to_a, first.transfer_b_to_a);
}

TEST(StoredStudy, ZeroDrvVariantIsRejected) {
  // A cell's derivation hangs off its variant's; a model the store never
  // saw has none, and the cell refuses it before crafting any attack.
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir("zero_drv");
  core::Study study(cfg);
  const core::ModelArtifact unstored{
      models::make_model(cfg.network, cfg.seed), store::Hash{}};
  EXPECT_THROW(core::evaluate_scenarios_stored(
                   study, unstored, AttackKind::kIfgsm,
                   AttackParams{.epsilon = 0.02f, .iterations = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace con
