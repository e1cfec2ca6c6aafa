// Edge-deployment scenario walk-through (the paper's §3.1 threat model,
// told as the AV/CCTV story from the introduction).
//
// A vendor trains a full-precision classifier in the cloud, compresses it
// for two edge products (one pruned for a sparse accelerator, one quantised
// to 8-bit fixed point for an NPU — the EIE/SCNN-style deployments), and
// ships a compressed checkpoint. An attacker buys product A, extracts the
// compressed model from the device, crafts adversarial samples against it,
// and turns them against the vendor's hidden cloud model (Scenario 3) and
// against the sibling product B — the "break-once, run-anywhere" hazard.
//
//   ./edge_deployment [--network lenet5-small]
#include <cstdio>

#include "attacks/attack.h"
#include "compress/finetune.h"
#include "core/study.h"
#include "core/transfer.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/threadpool.h"
#include "util/table.h"

using namespace con;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup obs_run = bench::parse_obs_flags(flags);
  util::ThreadPool::set_global_threads(bench::parse_threads(flags));
  core::StudyConfig cfg;
  cfg.network = flags.get_string("network", "lenet5-small");
  cfg.train_size =
      flags.get_int("train-size", tensor::Index{1500}, 1, bench::kMaxSamples);
  cfg.test_size =
      flags.get_int("test-size", tensor::Index{300}, 1, bench::kMaxSamples);
  cfg.attack_size =
      flags.get_int("attack-size", tensor::Index{100}, 1, bench::kMaxSamples);
  cfg.baseline_epochs = flags.get_int("epochs", 6, 0, bench::kMaxEpochs);
  cfg.store_dir = flags.get_string("store", "");
  flags.check_unused();

  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);

  std::printf("== vendor side =====================================\n");
  nn::Sequential& cloud = study.baseline();
  std::printf("cloud model trained: accuracy %.3f\n",
              study.baseline_accuracy());

  nn::Sequential product_a = study.pruned_variant(0.3).model;
  nn::Sequential product_b = study.quantized_variant(8).model;

  const std::string ship_path = io::artifacts_dir() + "/edge_product_a.ckpt";
  io::save_model(product_a, ship_path);
  std::printf("product A (pruned, density %.2f) shipped as %s\n",
              product_a.density(), ship_path.c_str());
  std::printf("product B (8-bit fixed-point weights+activations) deployed\n");

  std::printf("\n== attacker side ===================================\n");
  // The attacker dumps the checkpoint from the device and reconstructs
  // product A — exactly what the threat model allows: full white-box access
  // to the compressed model, no access to the cloud model.
  nn::Sequential extracted = models::make_model(cfg.network, /*seed=*/0);
  io::load_model_into(extracted, ship_path);
  std::printf("extracted model from device: density %.2f\n",
              extracted.density());

  const data::Dataset& probes = study.attack_set();
  const attacks::AttackKind attack = attacks::AttackKind::kIfgsm;
  const attacks::AttackParams params =
      attacks::paper_params(attack, cfg.network);
  tensor::Tensor adv = attacks::run_attack_batched(
      attack, extracted, probes.images, probes.labels, params);
  const attacks::PerturbationStats stats =
      attacks::perturbation_stats(probes.images, adv);
  std::printf("crafted %lld IFGSM samples (mean l2 %.3f, linf %.3f)\n",
              static_cast<long long>(probes.size()), stats.mean_l2,
              stats.mean_linf);

  std::printf("\n== blast radius ====================================\n");
  util::Table table({"victim", "clean_acc", "adv_acc", "note"});
  auto report = [&](const char* who, nn::Sequential& victim,
                    const char* note) {
    const double clean =
        nn::evaluate_accuracy(victim, probes.images, probes.labels);
    const double attacked = nn::evaluate_accuracy(victim, adv, probes.labels);
    table.add_row({who, util::format_double(clean, 3),
                   util::format_double(attacked, 3), note});
  };
  report("product A (source)", product_a, "white-box: attacker owns it");
  report("cloud model", cloud, "scenario 3: hidden baseline");
  report("product B", product_b, "sibling product, same heritage");
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "If adv_acc collapses for the cloud model and product B, one bought\n"
      "device compromised the vendor's whole model family — the paper's\n"
      "Heartbleed-for-classifiers warning.\n");
  bench::finish_run(obs_run, "edge_deployment");
  return 0;
}
