// Study: the experiment workspace tying datasets, baseline training and
// the content-addressed artifact store together. Benches and examples
// construct a Study; trained baselines, compressed variants and
// adversarial batches are realised as store derivations (src/store/,
// core/artifacts.h), so anything already built — by this run, an earlier
// run, or another binary sharing the store — is loaded instead of
// recomputed, and a config change rebuilds exactly the artifacts whose
// input closure changed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "attacks/params.h"
#include "compress/finetune.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "store/store.h"

namespace con::core {

struct StudyConfig {
  // "lenet5", "cifarnet", "lenet5-small", "cifarnet-small".
  std::string network = "lenet5-small";
  tensor::Index train_size = 2000;
  tensor::Index test_size = 500;
  // Subset of the test set used for attack generation (attacks are the
  // costly part: DeepFool does K backward passes per iteration per image).
  tensor::Index attack_size = 200;
  int baseline_epochs = 6;
  int batch_size = 32;
  compress::FineTuneConfig finetune{.epochs = 2, .batch_size = 32};
  std::uint64_t seed = 42;
  // Artifact store root (--store DIR on every bench/example). Empty
  // resolves to $CON_STORE_DIR, else <artifacts>/store.
  std::string store_dir;
};

// A model together with the hash of the derivation that produced it — the
// handle downstream derivations (transfer cells) use as their input edge.
// The store-backed cells reject a zero `drv` (a model the store never saw).
struct ModelArtifact {
  nn::Sequential model;
  store::Hash drv;
};

class Study {
 public:
  explicit Study(StudyConfig config);

  const StudyConfig& config() const { return config_; }
  const data::Dataset& train_set() const { return split_.train; }
  const data::Dataset& test_set() const { return split_.test; }
  const data::Dataset& attack_set() const { return attack_set_; }

  // The trained dense float32 baseline: trained_baseline(config().seed),
  // memoized in-process.
  nn::Sequential& baseline();

  // Clean test accuracy of the baseline.
  double baseline_accuracy();

  // The dense baseline trained from the initialisation (and shuffle) seed
  // `init_seed` on this study's data, realised through the store: trained
  // only on a store miss. Other seeds serve the §3.3 cross-initialisation
  // experiment.
  ModelArtifact trained_baseline(std::uint64_t init_seed);

  // The artifact store backing this study.
  store::Store& store() { return store_; }

  // Content hash of the train/test splits (computed once, lazily). Part of
  // every derivation closure: regenerating the data regenerates the grid.
  const store::Hash& dataset_hash();

  // Hash of the baseline's derivation — the input edge every downstream
  // artifact hangs off. Realises the baseline if needed.
  const store::Hash& baseline_drv_hash();

  // Store-backed compressed variants. On a hit the checkpoint is loaded
  // (bit-identical to a recompute — tests/test_packed_cache_invalidation
  // pins the round-trip); on a miss the variant is built, fine-tuned and
  // inserted.
  ModelArtifact pruned_variant(double density, bool one_shot = false);
  ModelArtifact quantized_variant(int bits, bool quantize_activations = true);

  // The scenario-2 batch: adversarial samples crafted against the baseline
  // over attack_set(). Shared by every member of a compression family, so
  // it is a first-class derivation rather than a per-sweep recompute.
  tensor::Tensor baseline_adversarial(attacks::AttackKind attack,
                                      const attacks::AttackParams& params);

 private:
  StudyConfig config_;
  data::TrainTestSplit split_;
  data::Dataset attack_set_;
  store::Store store_;
  std::optional<nn::Sequential> baseline_;
  std::optional<store::Hash> dataset_hash_;
  std::optional<store::Hash> baseline_drv_;
};

}  // namespace con::core
