#include "core/study.h"

#include <stdexcept>
#include <utility>

#include "attacks/attack.h"
#include "core/artifacts.h"
#include "data/synth_digits.h"
#include "data/synth_objects.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace con::core {

namespace {

data::TrainTestSplit make_split(const StudyConfig& c) {
  // Checked here, before the store directory is created.
  if (c.attack_size > c.test_size) {
    throw std::invalid_argument("Study: attack_size exceeds test_size");
  }
  if (c.network.rfind("lenet5", 0) == 0) {
    data::SynthDigitsConfig dc;
    dc.train_size = c.train_size;
    dc.test_size = c.test_size;
    dc.seed = c.seed;
    return data::make_synth_digits(dc);
  }
  if (c.network.rfind("cifarnet", 0) == 0) {
    data::SynthObjectsConfig oc;
    oc.train_size = c.train_size;
    oc.test_size = c.test_size;
    oc.seed = c.seed;
    return data::make_synth_objects(oc);
  }
  throw std::invalid_argument("Study: unknown network " + c.network);
}

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      split_(make_split(config_)),
      store_(config_.store_dir.empty()
                 ? store::default_store_dir(io::artifacts_dir())
                 : config_.store_dir) {
  attack_set_ = split_.test.take(config_.attack_size);
}

const store::Hash& Study::dataset_hash() {
  if (!dataset_hash_) dataset_hash_ = dataset_content_hash(split_);
  return *dataset_hash_;
}

ModelArtifact Study::trained_baseline(std::uint64_t init_seed) {
  nn::Sequential model = models::make_model(config_.network, init_seed);
  // The init-state hash is taken before training: it captures topology,
  // init scheme and seed, closing the derivation over models::make_model.
  const store::Derivation drv = baseline_derivation(
      config_, init_seed, io::model_state_hash(model), dataset_hash());
  bool built = false;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("training baseline %s (%d epochs, %lld samples)",
                   model.name().c_str(), config_.baseline_epochs,
                   static_cast<long long>(config_.train_size));
    obs::Span span(model.name(), "train_baseline");
    obs::ScopedPhase phase("train-baseline");
    nn::TrainConfig tc;
    tc.epochs = config_.baseline_epochs;
    tc.batch_size = config_.batch_size;
    tc.shuffle_seed = init_seed ^ 0x5f5fULL;
    nn::train_classifier(model, split_.train.images, split_.train.labels, tc);
    io::save_model(model, tmp);
    built = true;
  });
  if (!built) {
    util::log_info("loading stored baseline %s", path.c_str());
    io::load_model_into(model, path);
  }
  // Keep the current baselines' closures alive across GC; re-running with
  // a changed config re-points the roots and strands the old closures.
  std::string root = "baseline-" + config_.network;
  if (init_seed != config_.seed) root += "-init" + std::to_string(init_seed);
  store_.add_root(root, path);
  return ModelArtifact{std::move(model), drv.hash()};
}

ModelArtifact& Study::baseline_artifact() {
  if (!baseline_) baseline_ = trained_baseline(config_.seed);
  return *baseline_;
}

double Study::baseline_accuracy() {
  return nn::evaluate_accuracy(baseline(), split_.test.images,
                               split_.test.labels);
}

ModelArtifact Study::pruned_variant(double density, bool one_shot) {
  const ModelArtifact& base = baseline_artifact();
  const store::Derivation drv = pruned_derivation(
      config_, base.drv, dataset_hash(), density, one_shot);
  std::optional<nn::Sequential> model;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("pruning %s to density %.3f", base.model.name().c_str(),
                   density);
    model = compress::make_pruned_model(base.model, split_.train, density,
                                        config_.finetune, one_shot);
    io::save_model(*model, tmp);
  });
  if (!model) {
    // Store hit: rebuild the (identical) topology and load weights, masks
    // and transforms from the checkpoint.
    model = models::make_model(config_.network, config_.seed);
    io::load_model_into(*model, path);
  }
  return ModelArtifact{std::move(*model), drv.hash()};
}

ModelArtifact Study::quantized_variant(int bits, bool quantize_activations) {
  const ModelArtifact& base = baseline_artifact();
  const store::Derivation drv = quantized_derivation(
      config_, base.drv, dataset_hash(), bits, quantize_activations);
  std::optional<nn::Sequential> model;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("quantising %s to %d bits", base.model.name().c_str(),
                   bits);
    model = compress::make_quantized_model(base.model, split_.train, bits,
                                           config_.finetune,
                                           quantize_activations);
    io::save_model(*model, tmp);
  });
  if (!model) {
    // QuantActivation layers carry no parameters, so quantising a freshly
    // initialised model yields the checkpoint's exact parameter list; the
    // fixed-point weight transforms then load from the payload.
    compress::QuantizeOptions options{
        .format = compress::FixedPointFormat::paper_format(bits),
        .quantize_activations = quantize_activations,
    };
    model = compress::quantize_model(
        models::make_model(config_.network, config_.seed), options);
    io::load_model_into(*model, path);
  }
  return ModelArtifact{std::move(*model), drv.hash()};
}

AdversarialBatch Study::adversarial(const ModelArtifact& source,
                                    attacks::AttackKind attack,
                                    const attacks::AttackParams& params) {
  if (source.drv.is_zero()) {
    throw std::invalid_argument("Study::adversarial: " + source.model.name() +
                                " has no store derivation");
  }
  obs::ScopedPhase phase("adversarial");
  const store::Derivation drv =
      adversarial_derivation(source.drv, dataset_hash(), config_.attack_size,
                             attack, params, config_.network);
  std::optional<tensor::Tensor> adv;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    obs::Span span(source.model.name(), "adversarial");
    adv = attacks::run_attack_batched(attack, source.model, attack_set_.images,
                                      attack_set_.labels, params,
                                      attack_set_.num_classes());
    io::save_tensor(*adv, tmp);
  });
  if (!adv) adv = io::load_tensor(path);
  return AdversarialBatch{std::move(*adv), drv.hash()};
}

}  // namespace con::core
