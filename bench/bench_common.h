// Shared plumbing for the figure driver (bench_figures), the
// google-benchmark suites and the examples.
//
// Every figure accepts the same sizing flags, so the default
// `bench_figures` run finishes in minutes on one CPU core (small model
// variants, reduced grids) while `--network lenet5 --paper-scale` runs the
// full configuration. Trained baselines, compressed variants and transfer
// cells live in the content-addressed artifact store (--store DIR,
// default <artifacts>/store) and are shared across figures via core::Study.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "attacks/params.h"
#include "core/study.h"
#include "io/checkpoint.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "obs/stats_server.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace con::bench {

// The sweep flags only some figures read. An unset optional means "the
// figure's own default", which may depend on --paper-scale.
struct FigureFlags {
  std::optional<std::vector<double>> densities;  // --densities 1.0,0.3
  std::vector<attacks::AttackKind> attacks = {   // --attacks ifgsm,ifgm
      attacks::AttackKind::kIfgsm, attacks::AttackKind::kIfgm,
      attacks::AttackKind::kDeepFool};
  std::optional<std::vector<int>> bitwidths;  // --bitwidths 4,8,16,32
  bool one_shot = false;                      // --pruner dns|oneshot
  bool act_quant = true;                      // --act-quant/--no-act-quant
  std::optional<bool> both_networks;          // --[no-]both-networks
};

struct BenchSetup {
  core::StudyConfig study;
  bool paper_scale = false;
  bool network_explicit = false;  // --network was given on the command line
  bool epochs_explicit = false;   // --epochs was given on the command line
  FigureFlags figure;
  // Observability flags (see DESIGN.md §6): --trace <path> enables span
  // recording and exports a Chrome trace on finish_run(); --manifest writes
  // artifacts/<name>_manifest.json. Live telemetry: --telemetry <path>
  // streams JSONL samples every --telemetry-interval ms, --stats-socket
  // <path> serves a JSON snapshot per connection (query with
  // tools/con-stats).
  std::string trace_path;
  bool write_manifest = false;
  std::string telemetry_path;
  // Live telemetry machinery, started by parse_obs_flags and quiesced by
  // finish_run(); both warn and disable themselves on an I/O failure
  // rather than failing the run. unique_ptr members make BenchSetup
  // move-only, which every call site already respects.
  std::unique_ptr<obs::Sampler> sampler;
  std::unique_ptr<obs::StatsServer> stats_server;
  obs::RunManifest run;
  util::Timer run_timer;
};

// Accepted ranges of the integer flags: a value outside its range throws
// std::invalid_argument naming the flag, instead of being truncated to the
// field's type or failing deep inside the tensor code.
inline constexpr std::int64_t kMaxSamples = 1'000'000;
inline constexpr int kMaxEpochs = 10'000;
inline constexpr int kMaxIntervalMs = 3'600'000;

// --threads: 0 means hardware concurrency.
inline std::size_t parse_threads(util::CliFlags& flags) {
  return flags.get_int("threads", std::size_t{0}, 0,
                       util::ThreadPool::kMaxThreads);
}

// Parse only the observability flags (--trace <path>, --manifest,
// --telemetry <path>, --telemetry-interval <ms>, --stats-socket <path>)
// plus --kernel <scalar|avx2> — the subset
// shared by every binary, including the examples and google-benchmark
// runners that do not take the study sizing flags.
inline BenchSetup parse_obs_flags(util::CliFlags& flags) {
  BenchSetup setup;
  setup.trace_path = flags.get_string("trace", "");
  setup.write_manifest = flags.get_bool("manifest", false);
  setup.telemetry_path = flags.get_string("telemetry", "");
  const int interval_ms =
      flags.get_int("telemetry-interval", 200, 1, kMaxIntervalMs);
  if (flags.has("telemetry-interval") && setup.telemetry_path.empty()) {
    throw std::invalid_argument(
        "--telemetry-interval: meaningless without --telemetry <path>");
  }
  const std::string stats_socket = flags.get_string("stats-socket", "");
  // --kernel forces the micro-kernel ISA (overriding $CON_KERNEL); a typo
  // throws here, while an ISA this host cannot run warns and falls back to
  // scalar inside set_isa (the graceful-fallback contract).
  const std::string kernel = flags.get_string("kernel", "");
  if (!kernel.empty()) {
    tensor::kernels::set_isa(tensor::kernels::parse_isa(kernel));
  }
  if (!setup.trace_path.empty()) obs::set_tracing(true);
  obs::set_thread_name("main");
  if (!setup.telemetry_path.empty()) {
    setup.sampler = std::make_unique<obs::Sampler>(
        obs::Sampler::Options{setup.telemetry_path, interval_ms});
  }
  if (!stats_socket.empty()) {
    setup.stats_server = std::make_unique<obs::StatsServer>(
        stats_socket,
        obs::StatsServer::Info{"", util::ThreadPool::global().size()});
  }
  return setup;
}

// Record the resolved study configuration into the manifest's config
// section.
inline void record_study_config(BenchSetup& setup,
                                const core::StudyConfig& cfg) {
  setup.run.config.emplace_back("network", obs::Json(cfg.network));
  const std::pair<const char*, std::int64_t> sizes[] = {
      {"train_size", cfg.train_size},
      {"test_size", cfg.test_size},
      {"attack_size", cfg.attack_size},
      {"epochs", cfg.baseline_epochs},
      {"finetune_epochs", cfg.finetune.epochs},
      {"batch_size", cfg.batch_size},
      {"seed", static_cast<std::int64_t>(cfg.seed)}};
  for (const auto& [key, value] : sizes) {
    setup.run.config.emplace_back(key, obs::Json(value));
  }
}

// The baseline epoch budget when --epochs is not given: CifarNet-class
// networks get more passes than LeNet5-class ones.
inline int default_epochs(bool paper_scale, const std::string& network) {
  const bool cifar = network.rfind("cifarnet", 0) == 0;
  return paper_scale ? (cifar ? 30 : 20) : (cifar ? 16 : 6);
}

inline std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

// Each item of a numeric list flag, read whole: "4x" or "" throws, naming
// the flag.
template <typename T>
std::vector<T> parse_numbers(const char* name,
                             const std::vector<std::string>& items) {
  std::vector<T> out;
  for (const std::string& item : items) {
    std::size_t used = 0;
    try {
      out.push_back(static_cast<T>(std::is_integral_v<T>
                                       ? std::stoi(item, &used)
                                       : std::stod(item, &used)));
    } catch (const std::logic_error&) {
      used = 0;
    }
    if (used == 0 || used != item.size()) {
      throw std::invalid_argument(std::string("--") + name +
                                  ": not a number: '" + item + "'");
    }
  }
  return out;
}

// Read the sweep flags named in `reads`; any other one stays unused, so
// check_unused() rejects it before a figure starts.
inline FigureFlags parse_figure_flags(util::CliFlags& flags,
                                      const std::set<std::string>& reads) {
  FigureFlags f;
  const auto list =
      [&](const char* name) -> std::optional<std::vector<std::string>> {
    if (reads.count(name) == 0 || !flags.has(name)) return std::nullopt;
    std::vector<std::string> items = split_list(flags.get_string(name, ""));
    if (items.empty()) {
      throw std::invalid_argument(std::string("--") + name +
                                  ": expected a comma-separated list");
    }
    return items;
  };
  if (const auto items = list("densities")) {
    f.densities = parse_numbers<double>("densities", *items);
  }
  if (const auto items = list("bitwidths")) {
    f.bitwidths = parse_numbers<int>("bitwidths", *items);
  }
  if (const auto items = list("attacks")) {
    f.attacks.clear();
    for (const std::string& a : *items) {
      f.attacks.push_back(attacks::attack_from_name(a));
    }
  }
  if (reads.count("pruner")) {
    const std::string pruner = flags.get_string("pruner", "dns");
    if (pruner != "dns" && pruner != "oneshot") {
      throw std::invalid_argument("--pruner: expected dns or oneshot, got " +
                                  pruner);
    }
    f.one_shot = pruner == "oneshot";
  }
  if (reads.count("act-quant")) {
    f.act_quant = flags.get_bool("act-quant", true);
  }
  if (reads.count("both-networks") && flags.has("both-networks")) {
    f.both_networks = flags.get_bool("both-networks", false);
  }
  return f;
}

// Parse the common flags: --network, --train-size, --test-size,
// --attack-size, --epochs, --finetune-epochs, --paper-scale, --seed,
// --store, --threads (0 = hardware concurrency; results are identical for
// any value, only wall-clock changes), the observability flags, and the
// sweep flags named in `figure_flags` (see parse_figure_flags).
inline BenchSetup parse_common(util::CliFlags& flags,
                               const std::string& default_network =
                                   "lenet5-small",
                               const std::set<std::string>& figure_flags = {}) {
  util::ThreadPool::set_global_threads(parse_threads(flags));
  BenchSetup setup = parse_obs_flags(flags);
  setup.paper_scale = flags.get_bool("paper-scale", false);
  setup.network_explicit = flags.has("network");
  setup.epochs_explicit = flags.has("epochs");
  setup.figure = parse_figure_flags(flags, figure_flags);
  core::StudyConfig& cfg = setup.study;
  cfg.network = flags.get_string("network", default_network);
  cfg.train_size = setup.paper_scale ? 8000 : 2000;
  cfg.test_size = setup.paper_scale ? 2000 : 400;
  cfg.attack_size = setup.paper_scale ? 500 : 100;
  cfg.baseline_epochs = default_epochs(setup.paper_scale, cfg.network);
  cfg.finetune.epochs = setup.paper_scale ? 6 : 2;
  cfg.train_size = flags.get_int("train-size", cfg.train_size, 1, kMaxSamples);
  cfg.test_size = flags.get_int("test-size", cfg.test_size, 1, kMaxSamples);
  cfg.attack_size =
      flags.get_int("attack-size", cfg.attack_size, 1, kMaxSamples);
  cfg.baseline_epochs =
      flags.get_int("epochs", cfg.baseline_epochs, 0, kMaxEpochs);
  cfg.finetune.epochs =
      flags.get_int("finetune-epochs", cfg.finetune.epochs, 0, kMaxEpochs);
  cfg.seed = flags.get_int("seed", std::uint64_t{42}, 0,
                           std::numeric_limits<std::int64_t>::max());
  // --store DIR points the run at a shared artifact store; unset, the
  // study resolves $CON_STORE_DIR or <artifacts>/store.
  cfg.store_dir = flags.get_string("store", "");
  record_study_config(setup, cfg);
  setup.run.config.emplace_back("paper_scale", obs::Json(setup.paper_scale));
  return setup;
}

// Record the store identity of the baseline a Study has realised, so the
// manifest pins down exactly which artifacts the run used: the derivation
// hash covers the full input closure (network, seed, sizes, epochs, batch
// size, dataset content and initial weights). Keyed per network, and
// recorded once per network: a network's baseline epochs resolve the same
// way in every figure, and a figure's config transform touches only
// fine-tuning, so one run never trains two baselines of one network at
// config().seed. Records nothing for a study that never realised its
// baseline (X1 uses only its trained_baseline(seed) pair), and never
// trains one itself.
inline void record_study(BenchSetup& setup, core::Study& study) {
  const core::ModelArtifact* baseline = study.realised_baseline();
  if (baseline == nullptr) return;
  const std::string key = "baseline_drv." + study.config().network;
  for (const auto& [name, value] : setup.run.config) {
    if (name == key) return;
  }
  setup.run.config.emplace_back(key, obs::Json(baseline->drv.hex()));
  setup.run.config.emplace_back("store_root." + study.config().network,
                                obs::Json(study.store().root()));
}

// End-of-run hook: every bench/example calls this once, after its tables.
// Quiesces the live telemetry (stats socket first, then the sampler's final
// record), writes the Chrome trace (--trace) and the JSON manifest
// (--manifest); costs one metrics snapshot and nothing else when all are
// off.
inline void finish_run(BenchSetup& setup, const std::string& name) {
  setup.run.name = name;
  setup.run.wall_time_s = setup.run_timer.seconds();
  setup.run.threads = util::ThreadPool::global().size();
  // Which micro-kernel ISA served this run. Recorded unconditionally (and
  // required by tools/obs_validate): a perf number without its kernel ISA
  // is not reproducible.
  setup.run.config.emplace_back(
      "kernel_isa", obs::Json(std::string(tensor::kernels::isa_name(
                        tensor::kernels::active_isa()))));
  // Ensure the store counters exist in every manifest (value 0 when the
  // binary never touched a store) so tools/obs_validate can require the
  // section unconditionally.
  obs::counter("store.hit").add(0);
  obs::counter("store.miss").add(0);
  obs::counter("store.evict").add(0);
  obs::counter("store.gc_bytes").add(0);
  setup.run.extra_counters.emplace_back("tensor.buffer_allocations",
                                        tensor::Tensor::buffer_allocations());
  // Telemetry quiesce order matters for the byte-identity contract: stop
  // the stats server (its snapshots are read-only but its thread should be
  // gone before the final accounting), then write the sampler's final
  // record with exactly the extra counters the manifest will append. No
  // metric moves between the sampler's final snapshot and the manifest's,
  // so the two counter sections serialize to identical bytes
  // (obs_validate --telemetry --manifest checks this).
  if (setup.stats_server) setup.stats_server->stop();
  if (setup.sampler) {
    setup.sampler->finish(setup.run.extra_counters);
    std::printf("(telemetry written to %s)\n", setup.telemetry_path.c_str());
  }
  if (setup.write_manifest) {
    const std::string path = obs::write_manifest(setup.run, io::artifacts_dir());
    if (path.empty()) {
      std::fprintf(stderr, "WARNING: failed to write manifest for %s\n",
                   name.c_str());
    } else {
      std::printf("(manifest written to %s)\n", path.c_str());
    }
  }
  if (!setup.trace_path.empty()) {
    if (obs::write_chrome_trace(setup.trace_path)) {
      std::printf("(chrome trace written to %s — load in ui.perfetto.dev)\n",
                  setup.trace_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: failed to write trace to %s\n",
                   setup.trace_path.c_str());
    }
  }
}

// For google-benchmark binaries: `--benchmark_*` arguments stay in argv
// for benchmark::Initialize; every other argument goes through CliFlags and
// parse_obs_flags, and one they do not read (a misspelt obs flag, a stray
// positional) throws, naming it, before any benchmark runs. Pair with
// finish_run() after benchmark::RunSpecifiedBenchmarks().
inline BenchSetup parse_benchmark_flags(int& argc, char** argv) {
  std::vector<const char*> ours = {argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      argv[kept++] = argv[i];
    } else {
      ours.push_back(argv[i]);
    }
  }
  argc = kept;
  util::CliFlags flags(static_cast<int>(ours.size()), ours.data());
  if (!flags.positional().empty()) {
    throw std::invalid_argument("unexpected argument " +
                                flags.positional().front());
  }
  BenchSetup setup = parse_obs_flags(flags);
  flags.check_unused();
  return setup;
}

// Write a result table both to stdout and to artifacts/<name>.csv.
inline void emit_table(const util::Table& table, const std::string& name,
                       const std::string& caption) {
  std::printf("\n%s\n%s", caption.c_str(), table.to_string().c_str());
  const std::string path = io::artifacts_dir() + "/" + name + ".csv";
  table.write_csv(path);
  std::printf("(series written to %s)\n", path.c_str());
}

}  // namespace con::bench
