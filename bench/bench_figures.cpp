// The paper's evaluation as one table: one row per DESIGN.md §3 id — Table 1,
// Figures 2–6, the §3.3 cross-initialisation check (X1), the two ablations
// (A1, A2) and the §4.1 feature-space extension (E1). A row names its
// default network, the sweep flags it reads, its study-config transform and
// the function that runs its sweep through core::, writes its tables
// (stdout + artifacts/<name>.csv) and checks its claims.
//
//   bench_figures [--figure T1,F2,...] [--network lenet5-small|cifarnet|...]
//                 [--paper-scale] [--densities 1.0,0.3] [--bitwidths 4,8]
//                 [--attacks ifgsm,ifgm,deepfool] [--pruner dns|oneshot]
//                 [--no-act-quant] [--[no-]both-networks] [common flags]
//
// With no --figure every row runs, in table order. A sweep flag that no
// selected row reads is rejected before anything trains. Each claim prints
// as `[SHAPE-OK] name` or `[SHAPE-DIFF] name` (the reproduction targets the
// paper's trends, not its absolute numbers); the run ends with every
// claim's margin, its signed distance from flipping.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/cdf.h"
#include "core/cross_init.h"
#include "core/feature_space.h"
#include "core/sweeps.h"
#include "nn/trainer.h"
#include "util/ascii_plot.h"

using namespace con;

namespace {

using attacks::AttackKind;
using attacks::attack_name;

// One paper claim: the value of its predicate and the signed margin by
// which the predicate holds (negative: by which it fails).
struct Claim {
  std::string name;
  bool ok;
  double margin;
};

// The comparisons the claims make, each keeping its exact predicate.
Claim below(std::string name, double a, double b) {
  return {std::move(name), a < b, b - a};
}
Claim above(std::string name, double a, double b) {
  return {std::move(name), a > b, a - b};
}
Claim at_least(std::string name, double a, double b) {
  return {std::move(name), a >= b, a - b};
}
Claim at_most(std::string name, double a, double b) {
  return {std::move(name), a <= b, b - a};
}
// Every step of a sweep satisfies its comparison, by the smallest margin.
Claim every(std::string name, const std::vector<Claim>& steps) {
  Claim all{std::move(name), true, std::numeric_limits<double>::infinity()};
  for (const Claim& s : steps) {
    all.ok &= s.ok;
    all.margin = std::min(all.margin, s.margin);
  }
  return all;
}

struct Run;

struct Figure {
  const char* id;
  const char* network;                // default --network
  std::vector<std::string> reads;     // sweep flags the row reads
  bool both_networks;                 // default --both-networks
  void (*configure)(core::StudyConfig&);  // study-config transform or null
  void (*run)(Run&);
};

// A registered claim: where it was checked ("F2 lenet5-small/ifgsm") and
// its outcome.
using Register = std::vector<std::pair<std::string, Claim>>;

// What a row's function sees: the parsed flags, its studies and the claim
// register.
struct Run {
  bench::BenchSetup& setup;
  const Figure& figure;
  Register& claims;
  std::string panel;  // the network/attack the next checks belong to
  // The studies the row built; they live until the row has finished, so
  // the driver can record each baseline the row realised.
  std::vector<std::unique_ptr<core::Study>> studies;

  const bench::FigureFlags& flags() const { return setup.figure; }

  // --both-networks runs one network of each class in place of --network,
  // in the rows that read it.
  std::vector<std::string> networks() const {
    const auto& reads = figure.reads;
    if (std::find(reads.begin(), reads.end(), "both-networks") != reads.end() &&
        flags().both_networks.value_or(figure.both_networks)) {
      if (setup.paper_scale) return {"lenet5", "cifarnet"};
      return {"lenet5-small", "cifarnet-small"};
    }
    return {setup.network_explicit ? setup.study.network : figure.network};
  }

  core::Study& study(const std::string& net) {
    core::StudyConfig cfg = setup.study;
    cfg.network = net;
    if (!setup.epochs_explicit) {
      cfg.baseline_epochs = bench::default_epochs(setup.paper_scale, net);
    }
    if (figure.configure) figure.configure(cfg);
    // The manifest says what each row ran: one entry per study it built.
    const std::string key = std::string("figure.") + figure.id + ".";
    append_config(key + "network", obs::Json(net));
    append_config(key + "epochs", obs::Json(cfg.baseline_epochs));
    append_config(key + "finetune_epochs", obs::Json(cfg.finetune.epochs));
    return *studies.emplace_back(std::make_unique<core::Study>(cfg));
  }
  core::Study& study() { return study(networks().front()); }

  // Appends `value` to the manifest config array `key`, creating it.
  void append_config(const std::string& key, obs::Json value) {
    for (auto& [name, list] : setup.run.config) {
      if (name == key) return list.push_back(std::move(value));
    }
    obs::Json list = obs::Json::array();
    list.push_back(std::move(value));
    setup.run.config.emplace_back(key, std::move(list));
  }

  void check(Claim claim) {
    std::printf("  [%s] %s\n", claim.ok ? "SHAPE-OK" : "SHAPE-DIFF",
                claim.name.c_str());
    claims.emplace_back(
        std::string(figure.id) + (panel.empty() ? "" : " " + panel),
        std::move(claim));
  }
};

// One Fig. 2/5 panel: a family's four series under one attack, as a table,
// a CSV and a terminal plot with the paper's series (base=blue,
// comp->comp=green, full->comp=cyan, comp->full=red).
std::vector<core::ScenarioPoint> scenario_panel(
    core::Study& study, const std::vector<core::ModelArtifact>& family,
    AttackKind attack, const std::string& x_name,
    const std::vector<double>& xs, int x_precision, const std::string& csv,
    const std::string& caption) {
  const std::vector<core::ScenarioPoint> points = core::sweep_scenarios(
      study, family, attack,
      attacks::paper_params(attack, study.config().network));
  util::Table t({x_name, "base_acc", "comp_to_comp", "full_to_comp",
                 "comp_to_full"});
  std::vector<util::Series> lines = {
      {"base", {}}, {"comp->comp", {}}, {"full->comp", {}}, {"comp->full", {}}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::ScenarioPoint& p = points[i];
    t.add_row({util::format_double(xs[i], x_precision),
               util::format_double(p.base_accuracy, 3),
               util::format_double(p.comp_to_comp, 3),
               util::format_double(p.full_to_comp, 3),
               util::format_double(p.comp_to_full, 3)});
    lines[0].ys.push_back(p.base_accuracy);
    lines[1].ys.push_back(p.comp_to_comp);
    lines[2].ys.push_back(p.full_to_comp);
    lines[3].ys.push_back(p.comp_to_full);
  }
  bench::emit_table(t, csv, caption);
  std::printf("%s", util::render_plot(xs, lines).c_str());
  return points;
}

// T1: the attack hyper-parameters of attacks::paper_params, printed and
// asserted against the paper; a drift exits 1.
void table1(Run&) {
  std::printf("== Table 1: attack hyper-parameters ==\n");
  util::Table t({"network", "ifgsm_eps", "ifgsm_i", "ifgm_eps", "ifgm_i",
                 "deepfool_eps", "deepfool_i"});
  for (const char* net : {"lenet5", "cifarnet"}) {
    std::vector<std::string> row = {net};
    for (AttackKind kind :
         {AttackKind::kIfgsm, AttackKind::kIfgm, AttackKind::kDeepFool}) {
      const attacks::AttackParams p = attacks::paper_params(kind, net);
      row.push_back(util::format_double(p.epsilon, 2));
      row.push_back(std::to_string(p.iterations));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());

  struct PaperValue {
    AttackKind kind;
    const char* net;
    float epsilon;
    int iterations;
    const char* what;
  };
  static const PaperValue kPaper[] = {
      {AttackKind::kIfgsm, "lenet5", 0.02f, 12,
       "LeNet5 IFGSM must be (0.02, 12)"},
      {AttackKind::kIfgm, "lenet5", 10.0f, 5, "LeNet5 IFGM must be (10.0, 5)"},
      {AttackKind::kDeepFool, "lenet5", 0.01f, 5,
       "LeNet5 DeepFool must be (0.01, 5)"},
      {AttackKind::kIfgsm, "cifarnet", 0.02f, 12,
       "CifarNet IFGSM must be (0.02, 12)"},
      {AttackKind::kIfgm, "cifarnet", 0.02f, 12,
       "CifarNet IFGM must be (0.02, 12)"},
      {AttackKind::kDeepFool, "cifarnet", 0.01f, 3,
       "CifarNet DeepFool must be (0.01, 3)"},
  };
  for (const PaperValue& v : kPaper) {
    const attacks::AttackParams p = attacks::paper_params(v.kind, v.net);
    if (!(p.epsilon == v.epsilon && p.iterations == v.iterations)) {
      std::fprintf(stderr, "TABLE1 MISMATCH: %s\n", v.what);
      std::exit(1);
    }
  }
  std::printf("all Table 1 values verified against the paper\n");
}

// F2: transferability under pruning, one panel per network and attack.
void figure2(Run& run) {
  const bench::FigureFlags& f = run.flags();
  const std::vector<double> densities = f.densities.value_or(
      run.setup.paper_scale ? core::paper_density_grid()
                            : std::vector<double>{1.0, 0.6, 0.3, 0.1, 0.03});
  std::printf("== Figure 2: transferability under pruning (%s) ==\n",
              f.one_shot ? "one-shot" : "dynamic network surgery");
  for (const std::string& net : run.networks()) {
    core::Study& study = run.study(net);
    const double dense_acc = study.baseline_accuracy();
    std::printf("\nnetwork %s: baseline accuracy %.3f\n", net.c_str(),
                dense_acc);
    const auto family =
        core::build_pruned_family(study, densities, f.one_shot);
    for (AttackKind attack : f.attacks) {
      const auto points = scenario_panel(
          study, family, attack, "density", densities, 3,
          "fig2_" + std::string(f.one_shot ? "oneshot_" : "") + net + "_" +
              attack_name(attack),
          "-- Fig.2 panel: " + net + " / " + attack_name(attack) +
              (f.one_shot ? " (one-shot pruning ablation)" : ""));
      run.panel = net + "/" + attack_name(attack);
      // §4.1: high-density samples transfer to the baseline; at extreme
      // sparsity that transfer weakens (the red line climbs) and clean
      // accuracy falls (the blue line); the self-attack stays effective.
      double worst_self = 1.0;
      for (const auto& p : points) {
        worst_self = std::min(worst_self, 1.0 - p.comp_to_comp);
      }
      run.check(below("high-density adversarial samples transfer to baseline",
                      points.front().comp_to_full, dense_acc - 0.15));
      run.check(at_least("extreme sparsity weakens comp->full transfer",
                         points.back().comp_to_full,
                         points.front().comp_to_full - 0.02));
      run.check(below("extreme sparsity costs clean accuracy",
                      points.back().base_accuracy, dense_acc - 0.05));
      run.check(above("self-attack remains effective", worst_self, 0.2));
    }
  }
}

// F3: baseline accuracy under IFGSM/IFGM vs epsilon and vs iterations —
// the paper's grounds for its Table 1 choices.
void figure3(Run& run) {
  core::Study& study = run.study();
  const core::ModelArtifact& base = study.baseline_artifact();
  const data::Dataset& probes = study.attack_set();
  std::printf("== Figure 3: %s accuracy vs attack strength ==\n",
              study.config().network.c_str());
  std::printf("clean accuracy on probes: %.3f\n",
              nn::evaluate_accuracy(base.model, probes.images, probes.labels));
  // Every point is a store derivation: the Table 1 points share F2's
  // scenario-2 batches, and a warm run crafts none.
  const auto adv_acc = [&](AttackKind kind, float eps, int iters) {
    const attacks::AttackParams p{.epsilon = eps, .iterations = iters};
    return nn::evaluate_accuracy(
        base.model, study.adversarial(base, kind, p).images, probes.labels);
  };

  const std::vector<float> eps_ifgsm = {0.005f, 0.01f, 0.02f, 0.04f, 0.08f};
  const std::vector<float> eps_ifgm = {0.5f, 1.0f, 2.0f, 5.0f, 10.0f};
  util::Table a({"idx", "ifgsm_eps", "ifgsm_acc", "ifgm_eps", "ifgm_acc"});
  double prev_ifgsm = 1.0, prev_ifgm = 1.0;
  std::vector<Claim> steps_ifgsm, steps_ifgm;
  for (std::size_t i = 0; i < eps_ifgsm.size(); ++i) {
    const double a_sign = adv_acc(AttackKind::kIfgsm, eps_ifgsm[i], 12);
    const double a_grad = adv_acc(AttackKind::kIfgm, eps_ifgm[i], 5);
    steps_ifgsm.push_back(at_most("", a_sign, prev_ifgsm + 0.05));
    steps_ifgm.push_back(at_most("", a_grad, prev_ifgm + 0.05));
    prev_ifgsm = a_sign;
    prev_ifgm = a_grad;
    a.add_row({std::to_string(i), util::format_double(eps_ifgsm[i], 3),
               util::format_double(a_sign, 3),
               util::format_double(eps_ifgm[i], 2),
               util::format_double(a_grad, 3)});
  }
  bench::emit_table(a, "fig3_epsilon_sweep",
                    "-- Fig.3a: accuracy vs epsilon (iters fixed)");
  run.check(every("IFGSM accuracy decreases with epsilon", steps_ifgsm));
  run.check(every("IFGM accuracy decreases with epsilon", steps_ifgm));

  util::Table b({"iterations", "ifgsm_acc", "ifgm_acc"});
  double first_ifgsm = -1.0, last_ifgsm = 1.0;
  for (int it : {1, 2, 4, 8, 12, 16}) {
    const double a_sign = adv_acc(AttackKind::kIfgsm, 0.02f, it);
    const double a_grad = adv_acc(AttackKind::kIfgm, 10.0f, it);
    if (first_ifgsm < 0) first_ifgsm = a_sign;
    last_ifgsm = a_sign;
    b.add_row({std::to_string(it), util::format_double(a_sign, 3),
               util::format_double(a_grad, 3)});
  }
  bench::emit_table(b, "fig3_iteration_sweep",
                    "-- Fig.3b: accuracy vs iterations (eps fixed)");
  run.check(at_most("more iterations never help the defender (IFGSM)",
                    last_ifgsm, first_ifgsm));
}

// F4: each pruned model's clean accuracy against its FULL->COMP accuracy,
// and the mild protection the paper reads off at the preferred density.
void figure4(Run& run) {
  core::Study& study = run.study();
  const std::string net = study.config().network;
  const double dense_acc = study.baseline_accuracy();
  std::printf("== Figure 4: %s base vs adversarial accuracy (pruning) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy: %.3f\n", dense_acc);
  const std::vector<double> densities =
      run.setup.paper_scale
          ? std::vector<double>{1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05}
          : std::vector<double>{1.0, 0.6, 0.3, 0.15, 0.05};
  const auto family = core::build_pruned_family(study, densities);
  for (AttackKind kind : {AttackKind::kIfgsm, AttackKind::kDeepFool}) {
    const auto points = core::sweep_scenarios(
        study, family, kind, attacks::paper_params(kind, net));
    util::Table t({"density", "base_acc(x)", "adv_acc_full_to_comp(y)"});
    std::vector<double> base_accs;
    for (std::size_t i = 0; i < densities.size(); ++i) {
      base_accs.push_back(points[i].base_accuracy);
      t.add_row_values(
          {densities[i], points[i].base_accuracy, points[i].full_to_comp}, 3);
    }
    bench::emit_table(t, "fig4_" + net + "_" + attack_name(kind),
                      "-- Fig.4 scatter: " + attack_name(kind));
    const double preferred =
        core::preferred_density(densities, base_accs, dense_acc);
    std::printf("preferred density (knee of the base-accuracy curve): %.2f\n",
                preferred);
    double adv_at_preferred = 0.0, adv_at_dense = 0.0;
    for (std::size_t i = 0; i < densities.size(); ++i) {
      if (densities[i] == preferred) adv_at_preferred = points[i].full_to_comp;
      if (densities[i] == 1.0) adv_at_dense = points[i].full_to_comp;
    }
    run.panel = net + "/" + attack_name(kind);
    run.check(at_least("protective bump at the preferred density",
                       adv_at_preferred + 0.05, adv_at_dense));
  }
}

// F5: transferability under fixed-point quantisation (the paper's integer
// bits: 4->1, 8->2, else 4), one panel per network and attack;
// --no-act-quant is the weight-only ablation.
void figure5(Run& run) {
  const bench::FigureFlags& f = run.flags();
  const std::vector<int> bitwidths = f.bitwidths.value_or(
      run.setup.paper_scale ? core::paper_bitwidth_grid()
                            : std::vector<int>{4, 8, 16, 32});
  const std::vector<double> xs(bitwidths.begin(), bitwidths.end());
  std::printf("== Figure 5: transferability under fixed-point quantisation "
              "(%s) ==\n",
              f.act_quant ? "weights + activations" : "weights only");
  for (const std::string& net : run.networks()) {
    core::Study& study = run.study(net);
    std::printf("\nnetwork %s: baseline accuracy %.3f\n", net.c_str(),
                study.baseline_accuracy());
    const auto family =
        core::build_quantized_family(study, bitwidths, f.act_quant);
    for (AttackKind attack : f.attacks) {
      const auto points = scenario_panel(
          study, family, attack, "bitwidth", xs, 0,
          "fig5_" + std::string(f.act_quant ? "" : "weightonly_") + net + "_" +
              attack_name(attack),
          "-- Fig.5 panel: " + net + " / " + attack_name(attack) +
              (f.act_quant ? "" : " (weight-only ablation)"));
      if (bitwidths.size() < 3 || bitwidths.front() != 4) continue;
      // §4.2: fast-gradient transfer is stable above 8 bits and weakens at
      // 4 bits (integer-precision clipping); DeepFool instead "struggles"
      // on quantised models — its self-attack weakens.
      run.panel = net + "/" + attack_name(attack);
      const core::ScenarioPoint& p4 = points.front();
      const core::ScenarioPoint& p_hi = points.back();
      const bool deepfool = attack == AttackKind::kDeepFool;
      if (deepfool) {
        run.check(at_least("DeepFool struggles on heavily quantised models "
                           "(self-attack accuracy rises at 4 bits)",
                           p4.comp_to_comp + 0.02, p_hi.comp_to_comp));
      } else {
        double mid_spread = 0.0;
        for (std::size_t i = 1; i < points.size(); ++i) {
          mid_spread = std::max(
              mid_spread, std::fabs(points[i].comp_to_full - p_hi.comp_to_full));
        }
        run.check(below("transfer is stable at bitwidths >= 8", mid_spread,
                        0.25));
      }
      run.check(at_least("4-bit clipping weakens comp->full transfer",
                         p4.comp_to_full + 0.02, p_hi.comp_to_full));
      if (!deepfool) {
        run.check(at_least("4-bit clipping weakens full->comp transfer",
                           p4.full_to_comp + 0.02, p_hi.full_to_comp));
      }
    }
  }
}

// F6: CDFs of all weights (a) and of the activations of ten validation
// images (b) at each bitwidth; the 4-bit model has more zeros and clips
// earlier.
void figure6(Run& run) {
  const std::vector<int> bitwidths =
      run.flags().bitwidths.value_or(std::vector<int>{4, 8, 16, 32});
  core::Study& study = run.study();
  std::printf("== Figure 6: weight/activation CDFs of quantised %s ==\n",
              study.config().network.c_str());
  std::printf("baseline accuracy %.3f\n", study.baseline_accuracy());
  const data::Dataset probe = study.test_set().take(10);

  struct ModelCdfs {
    int bits;
    core::Cdf weights;
    core::Cdf activations;
    double weight_zero_mass;
    float weight_max;
    float act_max;
  };
  std::vector<ModelCdfs> results;
  for (int bits : bitwidths) {
    nn::Sequential q = study.quantized_variant(bits).model;
    const std::vector<float> w = core::gather_effective_weights(q);
    const std::vector<float> a = core::gather_activations(q, probe.images);
    ModelCdfs r{.bits = bits,
                .weights = core::compute_cdf(w, 64),
                .activations = core::compute_cdf(a, 64),
                .weight_zero_mass = 0.0,
                .weight_max = 0.0f,
                .act_max = 0.0f};
    std::size_t zeros = 0;
    for (float v : w) {
      if (v == 0.0f) ++zeros;
      r.weight_max = std::max(r.weight_max, std::fabs(v));
    }
    for (float v : a) r.act_max = std::max(r.act_max, v);
    r.weight_zero_mass = static_cast<double>(zeros) / w.size();
    results.push_back(std::move(r));
  }

  // Each CDF sampled on a fixed x-grid so the series are comparable.
  const auto cdf_table = [&](float lo, float hi, float step,
                             core::Cdf ModelCdfs::*cdf, const char* csv,
                             const char* caption) {
    util::Table t({"x", "cdf_4bit", "cdf_8bit", "cdf_16bit", "cdf_32bit"});
    for (float x = lo; x <= hi + 1e-6f; x += step) {
      std::vector<double> row = {x};
      for (const ModelCdfs& r : results) row.push_back(core::cdf_at(r.*cdf, x));
      t.add_row_values(row, 3);
    }
    bench::emit_table(t, csv, caption);
  };
  cdf_table(-1.0f, 1.0f, 0.125f, &ModelCdfs::weights, "fig6a_weight_cdf",
            "-- Fig.6a: weight CDFs");
  cdf_table(0.0f, 4.0f, 0.25f, &ModelCdfs::activations, "fig6b_activation_cdf",
            "-- Fig.6b: activation CDFs (10 validation images)");

  util::Table s({"bitwidth", "weight_zero_mass", "weight_|max|", "act_max"});
  for (const ModelCdfs& r : results) {
    s.add_row({std::to_string(r.bits),
               util::format_double(r.weight_zero_mass, 3),
               util::format_double(r.weight_max, 3),
               util::format_double(r.act_max, 3)});
  }
  bench::emit_table(s, "fig6_summary", "-- Fig.6 summary statistics");

  if (results.front().bits != 4) return;
  const ModelCdfs& r4 = results.front();
  const ModelCdfs& r_hi = results.back();
  run.check(above("4-bit model has clearly more zero weights",
                  r4.weight_zero_mass, r_hi.weight_zero_mass + 0.1));
  // Q1.3 bounds are [-1.0, 0.875]; the magnitude bound is therefore 1.0.
  run.check(at_most("4-bit weights clip at the 1-integer-bit bound",
                    r4.weight_max, 1.0f + 1e-6f));
  run.check(at_most("4-bit activations are clipped to a smaller max",
                    r4.act_max, r_hi.act_max + 1e-6f));
}

// X1 (§3.3): DeepFool transfer between two trainings of one architecture
// from different initialisations; the paper measures 7% for LeNet5 and 60%
// for CifarNet.
void cross_init(Run& run) {
  std::printf("== Cross-initialisation DeepFool transferability (§3.3) ==\n");
  util::Table t({"network", "acc_A", "acc_B", "transfer_A_to_B",
                 "transfer_B_to_A"});
  double lenet_rate = -1.0, cifar_rate = -1.0;
  for (const std::string& net : run.networks()) {
    core::Study& study = run.study(net);
    const core::CrossInitResult r = core::cross_init_transferability(
        study, AttackKind::kDeepFool,
        attacks::paper_params(AttackKind::kDeepFool, net), /*seed_a=*/1001,
        /*seed_b=*/2002);
    t.add_row({net, util::format_double(r.accuracy_a, 3),
               util::format_double(r.accuracy_b, 3),
               util::format_double(r.transfer_a_to_b, 3),
               util::format_double(r.transfer_b_to_a, 3)});
    const double rate = (r.transfer_a_to_b + r.transfer_b_to_a) / 2.0;
    if (net.rfind("lenet5", 0) == 0) lenet_rate = rate;
    if (net.rfind("cifarnet", 0) == 0) cifar_rate = rate;
  }
  bench::emit_table(t, "xinit_transfer",
                    "-- DeepFool transfer between independent trainings");
  std::printf("paper reference: LeNet5 7%%, CifarNet 60%%\n");
  if (lenet_rate >= 0.0) {
    run.check(below("DeepFool cross-init transfer is far from total "
                    "(lower-bound attack)",
                    lenet_rate, 0.6));
  }
  if (lenet_rate >= 0.0 && cifar_rate >= 0.0) {
    run.check(above("CIFAR-class network transfers at least as much as the "
                    "MNIST-class network",
                    cifar_rate, lenet_rate - 0.05));
  }
}

// A1: dynamic network surgery against one-shot (Han-style) pruning at
// matched densities: clean accuracy and IFGSM FULL->COMP side by side.
void ablation_pruner(Run& run) {
  core::Study& study = run.study();
  const std::string net = study.config().network;
  std::printf("== Ablation: DNS vs one-shot pruning on %s ==\n", net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());
  const std::vector<double> densities = {0.5, 0.2, 0.1, 0.05};
  const attacks::AttackParams params =
      attacks::paper_params(AttackKind::kIfgsm, net);
  const auto dns_family = core::build_pruned_family(study, densities, false);
  const auto oneshot_family = core::build_pruned_family(study, densities, true);
  const auto dns = core::sweep_scenarios(study, dns_family,
                                         AttackKind::kIfgsm, params);
  const auto oneshot = core::sweep_scenarios(study, oneshot_family,
                                             AttackKind::kIfgsm, params);
  util::Table t({"density", "dns_clean_acc", "oneshot_clean_acc",
                 "dns_full_to_comp", "oneshot_full_to_comp"});
  double dns_acc = 0.0, oneshot_acc = 0.0;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    dns_acc += dns[i].base_accuracy;
    oneshot_acc += oneshot[i].base_accuracy;
    t.add_row_values({densities[i], dns[i].base_accuracy,
                      oneshot[i].base_accuracy, dns[i].full_to_comp,
                      oneshot[i].full_to_comp},
                     3);
  }
  bench::emit_table(t, "ablation_pruner_" + net,
                    "-- DNS vs one-shot at matched densities");
  std::printf("mean clean accuracy: DNS %.3f, one-shot %.3f\n",
              dns_acc / densities.size(), oneshot_acc / densities.size());
  // Guo et al.'s full claim (DNS strictly dominates) needs hundreds of
  // fine-tuning epochs; at this budget, the weaker form: the recovery
  // mechanism does not cost accuracy overall.
  run.check(at_least("DNS recovery is competitive with one-shot at short "
                     "fine-tuning budgets",
                     dns_acc, oneshot_acc - 0.1 * densities.size()));
}

// A2 (§4.2 mechanism): weight-only against weight+activation quantisation
// at 4 and 8 bits under IFGSM.
void ablation_actquant(Run& run) {
  core::Study& study = run.study();
  const std::string net = study.config().network;
  std::printf("== Ablation: weight-only vs weight+activation quantisation "
              "(%s) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());
  const std::vector<int> bitwidths = {4, 8};
  const attacks::AttackParams params =
      attacks::paper_params(AttackKind::kIfgsm, net);
  const auto both_family = core::build_quantized_family(study, bitwidths, true);
  const auto weights_family =
      core::build_quantized_family(study, bitwidths, false);
  const auto both = core::sweep_scenarios(study, both_family,
                                          AttackKind::kIfgsm, params);
  const auto weights = core::sweep_scenarios(study, weights_family,
                                             AttackKind::kIfgsm, params);
  util::Table t({"bitwidth", "variant", "base_acc", "comp_to_comp",
                 "full_to_comp", "comp_to_full"});
  for (std::size_t i = 0; i < bitwidths.size(); ++i) {
    for (const auto& [variant, p] :
         {std::pair{"weights+acts", both[i]},
          std::pair{"weights-only", weights[i]}}) {
      t.add_row({std::to_string(bitwidths[i]), variant,
                 util::format_double(p.base_accuracy, 3),
                 util::format_double(p.comp_to_comp, 3),
                 util::format_double(p.full_to_comp, 3),
                 util::format_double(p.comp_to_full, 3)});
    }
  }
  bench::emit_table(t, "ablation_actquant_" + net,
                    "-- quantisation variants under IFGSM");
  // At 4 bits the full quantisation blocks cross-boundary transfer at least
  // as well as weight-only quantisation.
  run.check(at_least(
      "activation clipping contributes to the 4-bit defence (comp->full)",
      both[0].comp_to_full + 0.03, weights[0].comp_to_full));
  run.check(at_least(
      "activation clipping contributes to the 4-bit defence (full->comp)",
      both[0].full_to_comp + 0.03, weights[0].full_to_comp));
}

// E1 (§4.1 hypothesis): mean linear CKA between baseline and pruned model
// against COMP->FULL transfer strength over a density sweep; similar
// feature spaces should transfer more.
void feature_space(Run& run) {
  core::Study& study = run.study();
  const std::string net = study.config().network;
  const double dense_acc = study.baseline_accuracy();
  std::printf("== Feature-space similarity vs transferability (%s) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy %.3f\n", dense_acc);
  const std::vector<double> densities = {0.8, 0.4, 0.2, 0.1, 0.03};
  const auto family = core::build_pruned_family(study, densities);
  const auto points = core::sweep_scenarios(
      study, family, AttackKind::kIfgsm,
      attacks::paper_params(AttackKind::kIfgsm, net));
  const data::Dataset& probes = study.attack_set();
  const tensor::Tensor probe =
      probes.take(std::min<tensor::Index>(24, probes.size())).images;
  util::Table t({"density", "mean_cka", "comp_to_full_adv_acc",
                 "transfer_strength"});
  std::vector<double> ckas, strengths;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    const double cka =
        core::mean_feature_similarity(study.baseline(), family[i].model, probe);
    // 1 = total transfer (the baseline's accuracy is gone), 0 = none.
    const double strength =
        1.0 - points[i].comp_to_full / std::max(1e-9, dense_acc);
    ckas.push_back(cka);
    strengths.push_back(strength);
    t.add_row_values({densities[i], cka, points[i].comp_to_full, strength}, 3);
  }
  bench::emit_table(t, "feature_space_" + net,
                    "-- CKA similarity vs IFGSM transfer strength");
  double correlation = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < ckas.size(); ++i) {
    for (std::size_t j = i + 1; j < ckas.size(); ++j) {
      const double a = (ckas[i] - ckas[j]) * (strengths[i] - strengths[j]);
      correlation += a > 0 ? 1.0 : (a < 0 ? -1.0 : 0.0);
      ++pairs;
    }
  }
  correlation /= pairs;
  std::printf("Kendall-style sign correlation(similarity, transfer): %.2f\n",
              correlation);
  run.check(above("similar feature spaces transfer more (Tramèr et al. "
                  "prediction, §4.1)",
                  correlation, 0.0));
  run.check(above("heavier pruning diverges the feature space", ckas.front(),
                  ckas.back()));
}

// The DNS-vs-one-shot gap is a fine-tuning-length effect (Guo et al. run
// hundreds of epochs): A1 gets a bigger budget than the default sweeps.
void longer_finetune(core::StudyConfig& cfg) {
  cfg.finetune.epochs = std::max(cfg.finetune.epochs, 4);
}

// DESIGN.md §3 order.
const Figure kFigures[] = {
    {"T1", "lenet5-small", {}, false, nullptr, table1},
    {"F2", "lenet5-small", {"densities", "attacks", "pruner", "both-networks"},
     false, nullptr, figure2},
    {"F3", "lenet5-small", {}, false, nullptr, figure3},
    {"F4", "cifarnet-small", {}, false, nullptr, figure4},
    {"F5", "lenet5-small", {"bitwidths", "attacks", "act-quant",
                            "both-networks"},
     false, nullptr, figure5},
    {"F6", "cifarnet-small", {"bitwidths"}, false, nullptr, figure6},
    {"X1", "lenet5-small", {"both-networks"}, true, nullptr, cross_init},
    {"A1", "lenet5-small", {}, false, longer_finetune, ablation_pruner},
    {"A2", "lenet5-small", {}, false, nullptr, ablation_actquant},
    {"E1", "lenet5-small", {}, false, nullptr, feature_space},
};

std::vector<const Figure*> select_figures(const std::string& list) {
  std::vector<std::string> ids = bench::split_list(list);
  std::vector<const Figure*> out;
  for (const Figure& fig : kFigures) {
    const auto it = std::find(ids.begin(), ids.end(), fig.id);
    if (list.empty() || it != ids.end()) out.push_back(&fig);
    if (it != ids.end()) ids.erase(it);
  }
  if (!ids.empty()) {
    throw std::invalid_argument("--figure: unknown figure " + ids.front() +
                                " (known: T1,F2,F3,F4,F5,F6,X1,A1,A2,E1)");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::vector<const Figure*> figures =
      select_figures(flags.get_string("figure", ""));
  std::set<std::string> reads;
  for (const Figure* fig : figures) {
    reads.insert(fig->reads.begin(), fig->reads.end());
  }
  bench::BenchSetup setup = bench::parse_common(flags, "lenet5-small", reads);
  flags.check_unused();

  obs::Json ran = obs::Json::array();
  for (const Figure* fig : figures) ran.push_back(obs::Json(fig->id));
  setup.run.config.emplace_back("figures", std::move(ran));

  Register claims;
  for (const Figure* fig : figures) {
    Run run{setup, *fig, claims, "", {}};
    fig->run(run);
    for (const auto& study : run.studies) bench::record_study(setup, *study);
    std::printf("\n");
  }

  util::Table margins({"figure", "margin", "holds", "claim"});
  std::size_t held = 0;
  for (const auto& [where, claim] : claims) {
    held += claim.ok;
    margins.add_row({where, util::format_double(claim.margin, 3),
                     claim.ok ? "yes" : "NO", claim.name});
  }
  std::printf("-- claims (margin: signed distance from flipping)\n%s",
              margins.to_string().c_str());
  std::printf("claims held: %zu/%zu\n", held, claims.size());
  bench::finish_run(setup, "bench_figures");
  return 0;
}
