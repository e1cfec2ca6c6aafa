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

// Adversarial samples over a study's attack_set() and the hash of the
// derivation that crafted them — the input edge of the cells and sweep
// indexes that use the batch.
struct AdversarialBatch {
  tensor::Tensor images;
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
  // memoized in-process. Its `drv` is the input edge every downstream
  // artifact hangs off.
  ModelArtifact& baseline_artifact();
  nn::Sequential& baseline() { return baseline_artifact().model; }
  // The baseline if baseline_artifact() has realised it, else null.
  const ModelArtifact* realised_baseline() const {
    return baseline_ ? &*baseline_ : nullptr;
  }

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

  // Store-backed compressed variants. On a hit the checkpoint is loaded
  // (bit-identical to a recompute — tests/test_packed_cache_invalidation
  // pins the round-trip); on a miss the variant is built, fine-tuned and
  // inserted.
  ModelArtifact pruned_variant(double density, bool one_shot = false);
  ModelArtifact quantized_variant(int bits, bool quantize_activations = true);

  // Adversarial samples crafted against `source` over attack_set(),
  // realised through the store: crafted only on a miss. The one place a
  // study's batch is crafted or loaded — the scenario-2 batch (source: the
  // baseline, shared by every member of a compression family), Fig. 3's
  // attack-strength points and §3.3's cross-initialisation batches. Throws
  // std::invalid_argument for a source with a zero `drv`.
  AdversarialBatch adversarial(const ModelArtifact& source,
                               attacks::AttackKind attack,
                               const attacks::AttackParams& params);

 private:
  StudyConfig config_;
  data::TrainTestSplit split_;
  data::Dataset attack_set_;
  store::Store store_;
  std::optional<ModelArtifact> baseline_;
  std::optional<store::Hash> dataset_hash_;
};

}  // namespace con::core
