// Concurrency contract tests.
//
// The refactor moved all per-call forward/backward state into caller-owned
// ForwardTapes, which is what lets many threads share one model. These
// tests pin the three guarantees the parallel harness depends on:
//   1. eval-mode gradient computation on a shared model is bit-identical
//      under concurrency (no hidden mutable state left in the layers),
//   2. the chunked/parallel entry points (run_attack_batched, and
//      sweep_scenarios with its workers realising cells in one store)
//      produce exactly the serial result, and
//   3. util::parallel_for covers its range exactly once, rethrows a
//      worker exception on the caller, and leaves the pool usable.
// Run them under CON_SANITIZE=thread to prove the data-race side of the
// contract, not just value equality.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attacks/attack.h"
#include "attacks/gradient.h"
#include "compress/quant_activation.h"
#include "core/transfer.h"
#include "core/sweeps.h"
#include "data/synth_digits.h"
#include "models/model_zoo.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/threadpool.h"

namespace con {
namespace {

using tensor::Index;
using tensor::Tensor;

// Force a multi-thread pool before anything touches ThreadPool::global():
// on a single-core host the pool would otherwise have one thread and
// parallel_for would run inline, leaving the threaded code paths untested.
// Every result in the suite is thread-count invariant, so oversubscription
// is harmless.
const bool kForcePool = [] {
  util::ThreadPool::set_global_threads(4);
  return true;
}();

// One small trained model + dataset shared by every test in the suite
// (training dominates the suite's runtime; do it once).
class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthDigitsConfig dc;
    dc.train_size = 800;
    dc.test_size = 96;
    split_ = new data::TrainTestSplit(data::make_synth_digits(dc));
    model_ = new nn::Sequential(models::make_lenet5_small(177));
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::train_classifier(*model_, split_->train.images, split_->train.labels,
                         tc);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    model_ = nullptr;
    split_ = nullptr;
  }

  static nn::Sequential* model_;
  static data::TrainTestSplit* split_;
};

nn::Sequential* ConcurrencyTest::model_ = nullptr;
data::TrainTestSplit* ConcurrencyTest::split_ = nullptr;

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (Index i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
}

TEST_F(ConcurrencyTest, SharedModelGradientsAreBitIdenticalAcrossThreads) {
  // Many threads differentiate ONE model object concurrently; every thread
  // must reproduce the serial gradient bit for bit. Before the tape
  // refactor this raced on the layers' cached activations.
  const data::Dataset probe = split_->test.take(8);
  const Tensor reference =
      attacks::loss_input_gradient(*model_, probe.images, probe.labels);

  constexpr int kThreads = 8;   // ≥ 4 per the execution contract
  constexpr int kRepeats = 5;
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        results[t] =
            attacks::loss_input_gradient(*model_, probe.images, probe.labels);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_bit_identical(results[t], reference);
  }
}

TEST_F(ConcurrencyTest, SharedFusedQuantisedModelMatchesSerialPass) {
  // quantize_model's layers fuse into groups whose conv/linear epilogue
  // runs the fake-quant + ReLU tail and writes its backward mask into the
  // caller's tape. Eval forward + backward on ONE shared fused model from
  // four threads, each with its own tape, must reproduce the serial pass.
  const nn::Sequential q = compress::quantize_model(
      *model_, compress::QuantizeOptions{
                   .format = compress::FixedPointFormat::paper_format(8)});
  ASSERT_LT(q.groups().size(), q.num_layers());
  const data::Dataset probe = split_->test.take(8);
  const auto pass = [&](Tensor& logits, Tensor& dx) {
    nn::ForwardTape tape(/*accumulate_param_grads=*/false);
    logits = q.forward(probe.images, /*train=*/false, tape);
    const auto loss = nn::softmax_cross_entropy(logits, probe.labels);
    dx = q.backward(loss.grad_logits, tape);
  };
  Tensor want_logits, want_dx;
  pass(want_logits, want_dx);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 3;
  std::vector<Tensor> logits(kThreads), dx(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) pass(logits[t], dx[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_bit_identical(logits[t], want_logits);
    expect_bit_identical(dx[t], want_dx);
  }
}

TEST_F(ConcurrencyTest, ConcurrentAttacksMatchSerialAttack) {
  // Whole attacks (iterated forward/backward) from concurrent threads on
  // the shared model, against the serial result.
  const data::Dataset probe = split_->test.take(6);
  const attacks::AttackParams params{.epsilon = 0.03f, .iterations = 3};
  const Tensor reference =
      attacks::run_attack_batched(attacks::AttackKind::kIfgsm, *model_,
                                  probe.images, probe.labels, params);

  constexpr int kThreads = 4;
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] =
          attacks::run_attack_batched(attacks::AttackKind::kIfgsm, *model_,
                                      probe.images, probe.labels, params);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_bit_identical(results[t], reference);
  }
}

TEST_F(ConcurrencyTest, BatchedAttackMatchesSerialChunksExactly) {
  // run_attack_batched splits into fixed kAttackChunk-sample chunks and
  // generates them over the pool. The result must equal a serial loop over
  // the same chunks — chunk boundaries depend on the batch size only, so
  // this also proves thread-count invariance.
  const data::Dataset probe = split_->test.take(80);  // 32 + 32 + 16
  const attacks::AttackParams params{.epsilon = 0.02f, .iterations = 2};

  const Tensor parallel = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, *model_, probe.images, probe.labels,
      params);

  Tensor serial(probe.images.shape());
  const Index n = probe.images.dim(0);
  for (Index lo = 0; lo < n; lo += attacks::kAttackChunk) {
    const Index hi = std::min(n, lo + attacks::kAttackChunk);
    const Tensor chunk = tensor::copy_rows(probe.images, lo, hi);
    const std::vector<int> chunk_labels(probe.labels.begin() + lo,
                                        probe.labels.begin() + hi);
    Tensor adv(chunk.shape());
    attacks::fast_gradient_range(*model_, chunk, 0, hi - lo, chunk_labels,
                                 params, attacks::FastGradientRule::kSign,
                                 adv);
    tensor::write_rows(serial, lo, adv);
  }
  expect_bit_identical(parallel, serial);

  // And the parallel path is deterministic run-to-run despite pool
  // scheduling variance.
  const Tensor again = attacks::run_attack_batched(
      attacks::AttackKind::kIfgsm, *model_, probe.images, probe.labels,
      params);
  expect_bit_identical(again, parallel);
}

TEST_F(ConcurrencyTest, SweepScenariosMatchesSerialEvaluationCellForCell) {
  // The parallel store-backed sweep, run on a cold store so every worker
  // realises its cell through Store::realise, must reproduce a serial loop
  // over the same cells exactly — same cells, same order, same doubles.
  core::StudyConfig cfg;
  cfg.network = "lenet5-small";
  cfg.train_size = 96;
  cfg.test_size = 48;
  cfg.attack_size = 48;
  cfg.baseline_epochs = 1;
  cfg.batch_size = 16;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 16;
  cfg.store_dir = con::testing::fresh_store_dir("parallel_sweep");
  core::Study study(cfg);
  const std::vector<core::ModelArtifact> family =
      core::build_pruned_family(study, {1.0, 0.75, 0.5});
  const attacks::AttackKind kind = attacks::AttackKind::kIfgsm;
  const attacks::AttackParams params{.epsilon = 0.02f, .iterations = 2};

  const std::vector<core::ScenarioPoint> parallel =
      core::sweep_scenarios(study, family, kind, params);

  const data::Dataset& eval_set = study.attack_set();
  const Tensor baseline_adv = attacks::run_attack_batched(
      kind, study.baseline(), eval_set.images, eval_set.labels, params);
  ASSERT_EQ(parallel.size(), family.size());
  for (std::size_t i = 0; i < family.size(); ++i) {
    const core::ScenarioPoint serial = core::evaluate_scenarios(
        study.baseline(), family[i].model, kind, params, eval_set,
        baseline_adv);
    EXPECT_DOUBLE_EQ(parallel[i].base_accuracy, serial.base_accuracy);
    EXPECT_DOUBLE_EQ(parallel[i].comp_to_comp, serial.comp_to_comp);
    EXPECT_DOUBLE_EQ(parallel[i].full_to_comp, serial.full_to_comp);
    EXPECT_DOUBLE_EQ(parallel[i].comp_to_full, serial.comp_to_full);
  }
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  util::parallel_for(0, kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i].load(), 1);

  // Empty and single-element ranges are fine too.
  std::atomic<int> hits{0};
  util::parallel_for(5, 5, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);
  util::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ParallelForTest, RethrowsWorkerExceptionAndPoolSurvives) {
  EXPECT_THROW(
      util::parallel_for(0, 5'000,
                         [&](std::size_t i) {
                           if (i == 1234) throw std::runtime_error("boom");
                         }),
      std::runtime_error);

  // The pool must be fully usable afterwards: every in-flight task drained,
  // in_flight_ balanced, no wedged workers.
  std::vector<int> out(2'000, 0);
  util::parallel_for(0, out.size(),
                     [&](std::size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // parallel_for inside a pool task must make progress even when every pool
  // thread is occupied by the outer loop (the caller drains its own work).
  std::atomic<int> total{0};
  util::parallel_for(0, 16, [&](std::size_t) {
    util::parallel_for(0, 64,
                       [&](std::size_t) {
                         total.fetch_add(1, std::memory_order_relaxed);
                       });
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(ThreadPoolTest, SetGlobalThreadsAfterCreationIsStrict) {
  util::ThreadPool& pool = util::ThreadPool::global();
  // Matching (or hardware-default) size is accepted; a mismatch throws
  // rather than silently running with the wrong parallelism.
  EXPECT_NO_THROW(util::ThreadPool::set_global_threads(pool.size()));
  EXPECT_THROW(util::ThreadPool::set_global_threads(pool.size() + 1),
               std::logic_error);
}

}  // namespace
}  // namespace con
