// Figure 3 reproduction: LeNet5 accuracy under IFGSM and IFGM adversarial
// samples as a function of epsilon and the number of iterations.
//
// The paper uses this to justify its Table 1 choices (LeNet5 needs "large
// epsilon values and more iterative runs" for gradient-magnitude attacks).
// Two tables: accuracy vs epsilon at fixed iterations, and accuracy vs
// iterations at fixed epsilon, for both attacks.
//
//   bench_fig3_epsilon [--network lenet5-small]
#include <cstdio>

#include "attacks/attack.h"
#include "bench_common.h"
#include "core/transfer.h"
#include "nn/trainer.h"

using namespace con;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  nn::Sequential& model = study.baseline();
  const data::Dataset& probes = study.attack_set();
  const double clean =
      nn::evaluate_accuracy(model, probes.images, probes.labels);
  std::printf("== Figure 3: %s accuracy vs attack strength ==\n",
              setup.study.network.c_str());
  std::printf("clean accuracy on probes: %.3f\n", clean);

  auto adv_acc = [&](attacks::AttackKind kind, float eps, int iters) {
    const attacks::AttackParams p{.epsilon = eps, .iterations = iters};
    tensor::Tensor adv = attacks::run_attack_batched(
        kind, model, probes.images, probes.labels, p);
    return nn::evaluate_accuracy(model, adv, probes.labels);
  };

  // Panel A: epsilon sweep at the paper's iteration counts.
  {
    const std::vector<float> eps_ifgsm = {0.005f, 0.01f, 0.02f, 0.04f, 0.08f};
    const std::vector<float> eps_ifgm = {0.5f, 1.0f, 2.0f, 5.0f, 10.0f};
    util::Table t({"idx", "ifgsm_eps", "ifgsm_acc", "ifgm_eps", "ifgm_acc"});
    double prev_ifgsm = 1.0, prev_ifgm = 1.0;
    bool monotone_ifgsm = true, monotone_ifgm = true;
    for (std::size_t i = 0; i < eps_ifgsm.size(); ++i) {
      const double a_sign =
          adv_acc(attacks::AttackKind::kIfgsm, eps_ifgsm[i], 12);
      const double a_grad =
          adv_acc(attacks::AttackKind::kIfgm, eps_ifgm[i], 5);
      monotone_ifgsm &= a_sign <= prev_ifgsm + 0.05;
      monotone_ifgm &= a_grad <= prev_ifgm + 0.05;
      prev_ifgsm = a_sign;
      prev_ifgm = a_grad;
      t.add_row({std::to_string(i), util::format_double(eps_ifgsm[i], 3),
                 util::format_double(a_sign, 3),
                 util::format_double(eps_ifgm[i], 2),
                 util::format_double(a_grad, 3)});
    }
    bench::emit_table(t, "fig3_epsilon_sweep",
                      "-- Fig.3a: accuracy vs epsilon (iters fixed)");
    bench::shape_check(monotone_ifgsm,
                       "IFGSM accuracy decreases with epsilon");
    bench::shape_check(monotone_ifgm, "IFGM accuracy decreases with epsilon");
  }

  // Panel B: iteration sweep at the paper's epsilons.
  {
    const std::vector<int> iters = {1, 2, 4, 8, 12, 16};
    util::Table t({"iterations", "ifgsm_acc", "ifgm_acc"});
    double last_ifgsm = 1.0, first_ifgsm = -1.0;
    for (int it : iters) {
      const double a_sign = adv_acc(attacks::AttackKind::kIfgsm, 0.02f, it);
      const double a_grad = adv_acc(attacks::AttackKind::kIfgm, 10.0f, it);
      if (first_ifgsm < 0) first_ifgsm = a_sign;
      last_ifgsm = a_sign;
      t.add_row({std::to_string(it), util::format_double(a_sign, 3),
                 util::format_double(a_grad, 3)});
    }
    bench::emit_table(t, "fig3_iteration_sweep",
                      "-- Fig.3b: accuracy vs iterations (eps fixed)");
    bench::shape_check(last_ifgsm <= first_ifgsm,
                       "more iterations never help the defender (IFGSM)");
  }
  bench::finish_run(setup, "bench_fig3_epsilon");
  return 0;
}
