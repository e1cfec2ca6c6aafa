// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts the same sizing flags so the default `for b in
// build/bench/*` loop finishes in minutes on one CPU core (small model
// variants, reduced grids) while `--network lenet5 --paper-scale` runs the
// full configuration. Trained baselines, compressed variants and transfer
// cells live in the content-addressed artifact store (--store DIR,
// default <artifacts>/store) and are shared across benches via core::Study.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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

struct BenchSetup {
  core::StudyConfig study;
  bool paper_scale = false;
  bool epochs_explicit = false;  // --epochs was given on the command line
  // Observability flags (see DESIGN.md §6): --trace <path> enables span
  // recording and exports a Chrome trace on finish_run(); --manifest writes
  // artifacts/<name>_manifest.json; --no-metrics turns counter updates into
  // a predicted branch. Live telemetry: --telemetry <path> streams JSONL
  // samples every --telemetry-interval ms, --stats-socket <path> serves a
  // JSON snapshot per connection (query with tools/con-stats).
  std::string trace_path;
  bool write_manifest = false;
  std::string telemetry_path;
  int telemetry_interval_ms = 200;
  std::string stats_socket_path;
  // Live telemetry machinery, started by the parse helpers and quiesced by
  // finish_run(). unique_ptr members make BenchSetup move-only, which every
  // call site already respects.
  std::unique_ptr<obs::Sampler> sampler;
  std::unique_ptr<obs::StatsServer> stats_server;
  obs::RunManifest run;
  util::Timer run_timer;
};

// Start the sampler thread and the stats socket from the parsed flag
// values. Idempotent per setup; both subsystems warn-and-disable on I/O
// failure rather than failing the run.
inline void start_telemetry(BenchSetup& setup) {
  if (!setup.telemetry_path.empty() && !setup.sampler) {
    setup.sampler = std::make_unique<obs::Sampler>(obs::Sampler::Options{
        setup.telemetry_path, setup.telemetry_interval_ms});
  }
  if (!setup.stats_socket_path.empty() && !setup.stats_server) {
    setup.stats_server = std::make_unique<obs::StatsServer>(
        setup.stats_socket_path,
        obs::StatsServer::Info{"", util::ThreadPool::global().size()});
  }
}

// Parse only the observability flags (--trace <path>, --manifest,
// --no-metrics, --telemetry <path>, --telemetry-interval <ms>,
// --stats-socket <path>) plus --kernel <scalar|avx2> — the subset
// shared by every binary, including the examples and google-benchmark
// runners that do not take the study sizing flags.
inline BenchSetup parse_obs_flags(util::CliFlags& flags) {
  BenchSetup setup;
  setup.trace_path = flags.get_string("trace", "");
  setup.write_manifest = flags.get_bool("manifest", false);
  // CliFlags parses `--no-metrics` as the negation of `--metrics`.
  obs::set_metrics(flags.get_bool("metrics", true));
  setup.telemetry_path = flags.get_string("telemetry", "");
  setup.telemetry_interval_ms = static_cast<int>(
      flags.get_int("telemetry-interval", setup.telemetry_interval_ms));
  if (setup.telemetry_interval_ms <= 0) {
    throw std::invalid_argument(
        "--telemetry-interval: expected a positive millisecond count, got " +
        std::to_string(setup.telemetry_interval_ms));
  }
  if (flags.has("telemetry-interval") && setup.telemetry_path.empty()) {
    throw std::invalid_argument(
        "--telemetry-interval: meaningless without --telemetry <path>");
  }
  setup.stats_socket_path = flags.get_string("stats-socket", "");
  // --kernel forces the micro-kernel ISA (overriding $CON_KERNEL); a typo
  // throws here, while an ISA this host cannot run warns and falls back to
  // scalar inside set_isa (the graceful-fallback contract).
  const std::string kernel = flags.get_string("kernel", "");
  if (!kernel.empty()) {
    tensor::kernels::set_isa(tensor::kernels::parse_isa(kernel));
  }
  if (!setup.trace_path.empty()) obs::set_tracing(true);
  obs::set_thread_name("main");
  start_telemetry(setup);
  return setup;
}

// Record the resolved study configuration into the manifest's config
// section.
inline void record_study_config(BenchSetup& setup,
                                const core::StudyConfig& cfg) {
  setup.run.config.emplace_back("network", obs::Json(cfg.network));
  setup.run.config.emplace_back(
      "train_size", obs::Json(static_cast<std::int64_t>(cfg.train_size)));
  setup.run.config.emplace_back(
      "test_size", obs::Json(static_cast<std::int64_t>(cfg.test_size)));
  setup.run.config.emplace_back(
      "attack_size", obs::Json(static_cast<std::int64_t>(cfg.attack_size)));
  setup.run.config.emplace_back(
      "epochs", obs::Json(static_cast<std::int64_t>(cfg.baseline_epochs)));
  setup.run.config.emplace_back(
      "finetune_epochs",
      obs::Json(static_cast<std::int64_t>(cfg.finetune.epochs)));
  setup.run.config.emplace_back(
      "batch_size", obs::Json(static_cast<std::int64_t>(cfg.batch_size)));
  setup.run.config.emplace_back(
      "seed", obs::Json(static_cast<std::int64_t>(cfg.seed)));
}

// Parse the common flags: --network, --train-size, --test-size,
// --attack-size, --epochs, --finetune-epochs, --paper-scale, --seed,
// --threads (0 = hardware concurrency; results are identical for any
// value, only wall-clock changes), plus the observability flags --trace,
// --manifest and --no-metrics.
inline BenchSetup parse_common(util::CliFlags& flags,
                               const std::string& default_network =
                                   "lenet5-small") {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(flags.get_int("threads", 0)));
  BenchSetup setup = parse_obs_flags(flags);
  setup.paper_scale = flags.get_bool("paper-scale", false);
  setup.epochs_explicit = flags.has("epochs");
  core::StudyConfig& cfg = setup.study;
  cfg.network = flags.get_string("network", default_network);
  const bool cifar = cfg.network.rfind("cifarnet", 0) == 0;
  if (setup.paper_scale) {
    cfg.train_size = 8000;
    cfg.test_size = 2000;
    cfg.attack_size = 500;
    cfg.baseline_epochs = cifar ? 30 : 20;
    cfg.finetune.epochs = 6;
  } else {
    cfg.train_size = 2000;
    cfg.test_size = 400;
    cfg.attack_size = 100;
    cfg.baseline_epochs = cifar ? 16 : 6;
    cfg.finetune.epochs = 2;
  }
  cfg.train_size = flags.get_int("train-size", cfg.train_size);
  cfg.test_size = flags.get_int("test-size", cfg.test_size);
  cfg.attack_size = flags.get_int("attack-size", cfg.attack_size);
  cfg.baseline_epochs =
      static_cast<int>(flags.get_int("epochs", cfg.baseline_epochs));
  cfg.finetune.epochs = static_cast<int>(
      flags.get_int("finetune-epochs", cfg.finetune.epochs));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  // --store DIR points the run at a shared artifact store; unset, the
  // study resolves $CON_STORE_DIR or <artifacts>/store.
  cfg.store_dir = flags.get_string("store", "");
  record_study_config(setup, cfg);
  setup.run.config.emplace_back("paper_scale", obs::Json(setup.paper_scale));
  return setup;
}

// Record the store identity of the baseline a Study resolved to, so the
// manifest pins down exactly which artifacts the run used: the derivation
// hash covers the full input closure (network, seed, sizes, epochs, batch
// size, dataset content and initial weights). Keyed per network:
// multi-network benches construct one Study per member of their loop.
// Realises the baseline if it has not been yet.
inline void record_study(BenchSetup& setup, core::Study& study) {
  setup.run.config.emplace_back(
      "baseline_drv." + study.config().network,
      obs::Json(study.baseline_drv_hash().hex()));
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

// For google-benchmark binaries: pull the obs flags (--trace, --manifest,
// --no-metrics, --kernel, --telemetry, --telemetry-interval,
// --stats-socket; value flags accept both `--flag value` and
// `--flag=value`) out of argv before benchmark::Initialize rejects them as
// unknown, and apply them. Returns a BenchSetup carrying only the
// observability state; pair with finish_run() after
// benchmark::RunSpecifiedBenchmarks().
//
// Malformed obs flags exit(2) with the offending flag named: anything that
// fell through to google-benchmark used to die as a generic "unrecognized
// command-line flag", which pointed at the wrong parser.
inline BenchSetup strip_obs_flags(int& argc, char** argv) {
  BenchSetup setup;
  std::string kernel;
  std::string interval_text;

  const auto fail = [](const std::string& flag, const std::string& why) {
    std::fprintf(stderr, "error: %s: %s\n", flag.c_str(), why.c_str());
    std::exit(2);
  };
  // Matches `--name value` / `--name=value`; exits if the value is missing.
  const auto value_flag = [&](const std::string& arg, const char* name,
                              int& i, std::string* out_value) {
    const std::string eq = std::string(name) + "=";
    if (arg.rfind(eq, 0) == 0) {
      *out_value = arg.substr(eq.size());
      if (out_value->empty()) fail(name, "expected a non-empty value");
      return true;
    }
    if (arg == name) {
      if (i + 1 >= argc) fail(name, "expected a value after the flag");
      *out_value = argv[++i];
      return true;
    }
    return false;
  };

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--manifest") {
      setup.write_manifest = true;
    } else if (arg == "--no-metrics") {
      obs::set_metrics(false);
    } else if (value_flag(arg, "--trace", i, &setup.trace_path) ||
               value_flag(arg, "--kernel", i, &kernel) ||
               value_flag(arg, "--telemetry-interval", i, &interval_text) ||
               value_flag(arg, "--telemetry", i, &setup.telemetry_path) ||
               value_flag(arg, "--stats-socket", i,
                          &setup.stats_socket_path)) {
      // handled
    } else if (arg.rfind("--telemetry", 0) == 0 ||
               arg.rfind("--stats-socket", 0) == 0) {
      // A misspelling like --telemetry-intervall would otherwise reach
      // google-benchmark and die with a message naming the wrong parser.
      fail(arg, "unrecognized observability flag");
    } else {
      argv[out++] = argv[i];
    }
  }
  if (!interval_text.empty()) {
    char* end = nullptr;
    const long v = std::strtol(interval_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0) {
      fail("--telemetry-interval",
           "expected a positive millisecond count, got '" + interval_text +
               "'");
    }
    if (setup.telemetry_path.empty()) {
      fail("--telemetry-interval", "meaningless without --telemetry <path>");
    }
    setup.telemetry_interval_ms = static_cast<int>(v);
  }
  if (!kernel.empty()) {
    tensor::kernels::set_isa(tensor::kernels::parse_isa(kernel));
  }
  argc = out;
  if (!setup.trace_path.empty()) obs::set_tracing(true);
  obs::set_thread_name("main");
  start_telemetry(setup);
  return setup;
}

// Study config for a specific network within a multi-network bench loop:
// re-resolves the per-network default epoch budget unless --epochs was
// given explicitly.
inline core::StudyConfig for_network(const BenchSetup& setup,
                                     const std::string& net) {
  core::StudyConfig cfg = setup.study;
  cfg.network = net;
  if (!setup.epochs_explicit) {
    const bool cifar = net.rfind("cifarnet", 0) == 0;
    cfg.baseline_epochs =
        setup.paper_scale ? (cifar ? 30 : 20) : (cifar ? 16 : 6);
  }
  return cfg;
}

// Write a result table both to stdout and to artifacts/<name>.csv.
inline void emit_table(const util::Table& table, const std::string& name,
                       const std::string& caption) {
  std::printf("\n%s\n%s", caption.c_str(), table.to_string().c_str());
  const std::string path = io::artifacts_dir() + "/" + name + ".csv";
  table.write_csv(path);
  std::printf("(series written to %s)\n", path.c_str());
}

// Print a qualitative shape-check line: the reproduction target is trend
// agreement with the paper, not absolute numbers.
inline void shape_check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-DIFF", claim.c_str());
}

}  // namespace con::bench
