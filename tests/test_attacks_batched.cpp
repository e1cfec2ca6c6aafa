// Bit-identity and allocation tests for the batched attack execution model:
// the active-set DeepFool must be byte-identical to the per-sample
// reference, chunked dispatch must be byte-identical to serial range
// calls over the same chunks, and the iterative fast-gradient loops must
// not allocate per iteration in steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "attacks/attack.h"
#include "attacks/gradient.h"
#include "data/synth_digits.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "nn/reshape.h"
#include "nn/trainer.h"
#include "oracles/deepfool_reference.h"
#include "tensor/ops.h"

namespace con::attacks {
namespace {

using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

void expect_results_identical(const DeepFoolResult& a,
                              const DeepFoolResult& b) {
  expect_bitwise_equal(a.adversarial, b.adversarial);
  ASSERT_EQ(a.iterations_used, b.iterations_used);
  ASSERT_EQ(a.perturbation_l2.size(), b.perturbation_l2.size());
  for (std::size_t i = 0; i < a.perturbation_l2.size(); ++i) {
    // Bitwise, not approximate: the batched path must replicate the
    // reference arithmetic exactly.
    ASSERT_EQ(std::memcmp(&a.perturbation_l2[i], &b.perturbation_l2[i],
                          sizeof(float)),
              0)
        << "perturbation_l2 mismatch at sample " << i;
  }
}

// A trained tiny model shared by the batched-attack tests (training is the
// slow part; do it once).
class BatchedAttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthDigitsConfig dc;
    dc.train_size = 1200;
    dc.test_size = 150;
    split_ = new data::TrainTestSplit(data::make_synth_digits(dc));
    model_ = new nn::Sequential(models::make_lenet5_small(99));
    nn::TrainConfig tc;
    tc.epochs = 4;
    nn::train_classifier(*model_, split_->train.images, split_->train.labels,
                         tc);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    model_ = nullptr;
    split_ = nullptr;
  }

  // A batch whose rows exercise every active-set path: most rows need
  // several boundary steps, while rows with deliberately wrong labels are
  // "already fooled" at iteration 0 and drop out through compaction.
  static std::vector<int> mixed_labels(Index n) {
    std::vector<int> labels(split_->test.labels.begin(),
                            split_->test.labels.begin() + n);
    for (std::size_t j = 3; j < labels.size(); j += 13) {
      labels[j] = (labels[j] + 1) % 10;
    }
    return labels;
  }

  static nn::Sequential* model_;
  static data::TrainTestSplit* split_;
};

nn::Sequential* BatchedAttackTest::model_ = nullptr;
data::TrainTestSplit* BatchedAttackTest::split_ = nullptr;

TEST_F(BatchedAttackTest, DeepFoolBatchedMatchesReferenceBitwise) {
  const Index n = 64;
  Tensor images = split_->test.take(n).images;
  std::vector<int> labels = mixed_labels(n);
  AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = 8;

  DeepFoolResult batched = deepfool(*model_, images, labels, params);
  DeepFoolResult reference = deepfool_reference(*model_, images, labels,
                                                params);
  expect_results_identical(batched, reference);

  // The batch must actually be mixed, or the active-set paths (early drop,
  // compaction, survivors) were not all exercised.
  bool some_zero = false, some_positive = false;
  for (int it : batched.iterations_used) {
    if (it == 0) some_zero = true;
    if (it > 0) some_positive = true;
  }
  EXPECT_TRUE(some_zero);
  EXPECT_TRUE(some_positive);
}

TEST_F(BatchedAttackTest, DeepFoolBatchedMatchesReferenceHeavyDrop) {
  // Most labels deliberately wrong: the bulk of the batch is "already
  // fooled" at iteration 0, which pushes the active set through its
  // re-forward branch (refresh the tape for the few survivors instead of
  // running class backwards over dead rows). mixed_labels() covers the
  // opposite, stale-tape branch where only a few rows drop. Both must be
  // byte-identical to the reference.
  const Index n = 32;
  Tensor images = split_->test.take(n).images;
  std::vector<int> labels(split_->test.labels.begin(),
                          split_->test.labels.begin() + n);
  for (std::size_t j = 0; j < labels.size(); ++j) {
    if (j % 4 != 0) labels[j] = (labels[j] + 1 + static_cast<int>(j % 9)) % 10;
  }
  AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = 8;

  DeepFoolResult batched = deepfool(*model_, images, labels, params);
  DeepFoolResult reference = deepfool_reference(*model_, images, labels,
                                                params);
  expect_results_identical(batched, reference);
}

TEST_F(BatchedAttackTest, DeepFoolBatchedMatchesReferenceOddSizes) {
  AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = 6;
  for (Index n : {Index{1}, Index{7}}) {
    Tensor images = split_->test.take(n).images;
    std::vector<int> labels = mixed_labels(n);
    DeepFoolResult batched = deepfool(*model_, images, labels, params);
    DeepFoolResult reference = deepfool_reference(*model_, images, labels,
                                                  params);
    expect_results_identical(batched, reference);
  }
}

TEST_F(BatchedAttackTest, DeepFoolDegenerateGradientRows) {
  // An all-zero classifier: every logit is 0, argmax is class 0, and every
  // class gradient is exactly zero. Rows labelled 0 hit the degenerate-
  // gradient exit (no usable boundary); other rows are fooled immediately.
  const Index n = 10;
  Tensor images = split_->test.take(n).images;
  const Index per_sample = images.numel() / n;
  util::Rng rng(1, "degenerate");
  nn::Sequential flat("degenerate");
  flat.emplace<nn::Flatten>();
  auto& lin = flat.emplace<nn::Linear>(per_sample, 10, rng);
  lin.weight().set_value(Tensor(lin.weight().value().shape()));
  lin.bias().set_value(Tensor(lin.bias().value().shape()));

  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < labels.size(); ++j) {
    labels[j] = static_cast<int>(j % 3);  // mix of label-0 and fooled rows
  }
  AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = 5;

  DeepFoolResult batched = deepfool(flat, images, labels, params);
  DeepFoolResult reference = deepfool_reference(flat, images, labels, params);
  expect_results_identical(batched, reference);
  for (std::size_t j = 0; j < labels.size(); ++j) {
    EXPECT_EQ(batched.iterations_used[j], 0);
    EXPECT_EQ(batched.perturbation_l2[j], 0.0f);
  }
  expect_bitwise_equal(batched.adversarial, images);
}

TEST_F(BatchedAttackTest, ChunkedDispatchMatchesManualRanges) {
  // 70 samples: two full chunks of kAttackChunk plus a 6-row tail. The
  // parallel chunked driver must produce exactly what serial range calls
  // produce — this is what makes the output independent of --threads. IFGM
  // is the input that exercises the tail: its gradient step carries the
  // rounding of the tail's 1/6 rescale, which IFGSM's sign step hides.
  const Index n = 70;
  Tensor images = split_->test.take(n).images;
  std::vector<int> labels = mixed_labels(n);
  struct Case {
    AttackKind kind;
    FastGradientRule rule;
    AttackParams params;
  };
  for (const Case& c :
       {Case{AttackKind::kIfgsm, FastGradientRule::kSign,
             AttackParams{.epsilon = 0.01f, .iterations = 4}},
        Case{AttackKind::kIfgm, FastGradientRule::kGradient,
             paper_params(AttackKind::kIfgm, "lenet5")}}) {
    SCOPED_TRACE(attack_name(c.kind));
    Tensor batched =
        run_attack_batched(c.kind, *model_, images, labels, c.params);
    Tensor manual(images.shape());
    for (Index lo = 0; lo < n; lo += kAttackChunk) {
      const Index hi = std::min(lo + kAttackChunk, n);
      fast_gradient_range(*model_, images, lo, hi, labels, c.params, c.rule,
                          manual);
    }
    expect_bitwise_equal(batched, manual);

    // And every chunk run through the range entry, the tail included, must
    // match attacking the chunk as its own standalone batch.
    for (Index lo = 0; lo < n; lo += kAttackChunk) {
      const Index hi = std::min(lo + kAttackChunk, n);
      Tensor chunk = tensor::copy_rows(images, lo, hi);
      std::vector<int> chunk_labels(labels.begin() + lo, labels.begin() + hi);
      Tensor standalone(chunk.shape());
      fast_gradient_range(*model_, chunk, 0, hi - lo, chunk_labels, c.params,
                          c.rule, standalone);
      expect_bitwise_equal(standalone, tensor::copy_rows(manual, lo, hi));
    }
  }
}

TEST_F(BatchedAttackTest, ChunkedDeepFoolMatchesReference) {
  const Index n = 70;
  Tensor images = split_->test.take(n).images;
  std::vector<int> labels = mixed_labels(n);
  AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = 6;

  Tensor batched = run_attack_batched(AttackKind::kDeepFool, *model_, images,
                                      labels, params);
  DeepFoolResult reference = deepfool_reference(*model_, images, labels,
                                                params);
  expect_bitwise_equal(batched, reference.adversarial);
}

TEST_F(BatchedAttackTest, IfgsmSteadyStateIsAllocationFree) {
  const Index n = 8;
  Tensor images = split_->test.take(n).images;
  std::vector<int> labels(split_->test.labels.begin(),
                          split_->test.labels.begin() + n);
  AttackParams params;
  params.epsilon = 0.01f;

  // Per-iteration cost ceiling: one gradient computation against a warm
  // tape (measured directly, so the bound tracks the model architecture).
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  Tensor grad = loss_input_gradient(*model_, images, labels, tape);
  std::uint64_t before = Tensor::buffer_allocations();
  grad = loss_input_gradient(*model_, images, labels, tape);
  const std::uint64_t per_gradient = Tensor::buffer_allocations() - before;

  Tensor adv(images.shape());
  params.iterations = 3;
  before = Tensor::buffer_allocations();
  fast_gradient_range(*model_, images, 0, n, labels, params,
                      FastGradientRule::kSign, adv);
  const std::uint64_t at_three = Tensor::buffer_allocations() - before;

  params.iterations = 7;
  before = Tensor::buffer_allocations();
  fast_gradient_range(*model_, images, 0, n, labels, params,
                      FastGradientRule::kSign, adv);
  const std::uint64_t at_seven = Tensor::buffer_allocations() - before;

  // Four extra iterations may cost at most four warm gradient computations:
  // the iterate is updated in place and the tape recycles its slots, so
  // the loop itself adds zero buffer acquisitions. (The old loop copied
  // the batch twice per iteration and would fail this bound.)
  EXPECT_LE(at_seven - at_three, 4 * per_gradient);
}

// --- batch-primitive unit tests --------------------------------------------

TEST(BatchPrimitives, CopyRowsExtractsContiguousRows) {
  Tensor batch({4, 3}, {0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32});
  Tensor rows = tensor::copy_rows(batch, 1, 3);
  ASSERT_EQ(rows.shape(), Shape({2, 3}));
  EXPECT_EQ(rows.at({0, 0}), 10.0f);
  EXPECT_EQ(rows.at({1, 2}), 22.0f);
}

TEST(BatchPrimitives, WriteRowsRoundTripsWithCopyRows) {
  Tensor batch({4, 2}, 0.0f);
  Tensor src({2, 2}, {5, 6, 7, 8});
  tensor::write_rows(batch, 1, src);
  Tensor out = tensor::copy_rows(batch, 1, 3);
  expect_bitwise_equal(out, src);
  EXPECT_EQ(batch.at({0, 0}), 0.0f);
  EXPECT_EQ(batch.at({3, 1}), 0.0f);
}

TEST(BatchPrimitives, GatherRowsAllowsRepeats) {
  Tensor batch({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor picked = tensor::gather_rows(batch, {2, 0, 2});
  ASSERT_EQ(picked.shape(), Shape({3, 2}));
  EXPECT_EQ(picked.at({0, 0}), 20.0f);
  EXPECT_EQ(picked.at({1, 1}), 1.0f);
  EXPECT_EQ(picked.at({2, 0}), 20.0f);
}

TEST(BatchPrimitives, CompactRowsKeepsAscendingSubsetInPlace) {
  Tensor batch({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31});
  const float* storage = batch.data();
  tensor::compact_rows_inplace(batch, {1, 3});
  ASSERT_EQ(batch.shape(), Shape({2, 2}));
  EXPECT_EQ(batch.data(), storage);  // no reallocation
  EXPECT_EQ(batch.at({0, 0}), 10.0f);
  EXPECT_EQ(batch.at({1, 1}), 31.0f);
  EXPECT_THROW(tensor::compact_rows_inplace(batch, {1, 0}),
               std::invalid_argument);
}

TEST(BatchPrimitives, AddScaledIntoMatchesAddScaledBitwise) {
  Tensor a({2, 3}, {0.1f, -0.2f, 0.3f, 1.5f, -2.5f, 0.0f});
  Tensor b({2, 3}, {1.0f, 2.0f, -3.0f, 0.25f, 0.5f, -0.75f});
  Tensor expected = tensor::add_scaled(a, b, 1.02f);
  Tensor dst;
  tensor::add_scaled_into(dst, a, b, 1.02f);
  expect_bitwise_equal(dst, expected);
  // Reusing warm storage must not allocate.
  const std::uint64_t before = Tensor::buffer_allocations();
  tensor::add_scaled_into(dst, a, b, 1.02f);
  EXPECT_EQ(Tensor::buffer_allocations(), before);
}

TEST(BatchPrimitives, ShrinkRowsPreservesLeadingRowsWithoutRealloc) {
  Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  const float* storage = t.data();
  t.shrink_rows(2);
  ASSERT_EQ(t.shape(), Shape({2, 2}));
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
  EXPECT_THROW(t.shrink_rows(5), std::out_of_range);
}

}  // namespace
}  // namespace con::attacks
