// Quickstart: the library's core loop in one file.
//
// Trains a small LeNet-style CNN on the synthetic digit dataset, derives a
// pruned and a quantised variant, and measures the paper's three attack
// scenarios with IFGSM — a miniature of the whole study.
//
//   ./quickstart [--network lenet5-small] [--train-size 1500] [--epochs 6]
#include <cstdio>

#include "compress/finetune.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "core/transfer.h"
#include "nn/trainer.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/threadpool.h"
#include "util/logging.h"
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
  cfg.finetune.epochs =
      flags.get_int("finetune-epochs", 2, 0, bench::kMaxEpochs);
  cfg.store_dir = flags.get_string("store", "");
  flags.check_unused();

  util::Timer timer;
  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);
  nn::Sequential& baseline = study.baseline();
  std::printf("baseline %s: %lld parameters, test accuracy %.3f (%.1fs)\n",
              baseline.name().c_str(),
              static_cast<long long>(baseline.num_parameters()),
              study.baseline_accuracy(), timer.seconds());

  // A pruned variant at 40% density and a 4-bit quantised variant. Both go
  // through the artifact store: the first run trains and populates it, a
  // re-run (same flags, same --store) loads everything back.
  timer.reset();
  core::ModelArtifact pruned = study.pruned_variant(0.4);
  core::ModelArtifact quantized = study.quantized_variant(4);
  std::printf("compressed variants ready in %.1fs: %s (density %.2f), %s\n",
              timer.seconds(), pruned.model.name().c_str(),
              pruned.model.density(), quantized.model.name().c_str());

  const attacks::AttackKind attack = attacks::AttackKind::kIfgsm;
  const attacks::AttackParams params =
      attacks::paper_params(attack, cfg.network);

  util::Table table({"model", "base_acc", "comp->comp", "full->comp",
                     "comp->full"});
  for (core::ModelArtifact* compressed : {&pruned, &quantized}) {
    core::ScenarioPoint p =
        core::evaluate_scenarios_stored(study, *compressed, attack, params);
    table.add_row({compressed->model.name(),
                   util::format_double(p.base_accuracy),
                   util::format_double(p.comp_to_comp),
                   util::format_double(p.full_to_comp),
                   util::format_double(p.comp_to_full)});
  }
  std::printf("\nIFGSM transferability (epsilon %.3f, %d iterations):\n%s\n",
              params.epsilon, params.iterations,
              table.to_string().c_str());
  std::printf(
      "Reading the table: low comp->full / full->comp accuracy means the\n"
      "adversarial samples transfer across the compression boundary —\n"
      "the paper's headline finding.\n");
  bench::finish_run(obs_run, "quickstart");
  return 0;
}
