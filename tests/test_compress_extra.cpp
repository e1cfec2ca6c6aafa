#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "compress/pruner.h"
#include "data/synth_digits.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "oracles/integer_exec.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "test_helpers.h"

namespace con::compress {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

// ---- integer execution -----------------------------------------------------

class IntegerExecTest : public ::testing::TestWithParam<int> {};

TEST_P(IntegerExecTest, MatchesFakeQuantExactly) {
  const int bits = GetParam();
  const FixedPointFormat fmt = FixedPointFormat::paper_format(bits);
  util::Rng rng(11);
  Tensor w({6, 10});
  tensor::fill_normal(w, rng, 0.0f, 0.3f);
  Tensor wq = fixed_point_quantize(w, fmt);
  Tensor b({6});
  tensor::fill_normal(b, rng, 0.0f, 0.1f);
  Tensor x = random_batch(Shape{4, 10}, 12);

  IntegerLinear layer = lower_linear(wq, b, fmt, fmt);
  EXPECT_EQ(integer_vs_fake_divergence(layer, wq, b, x), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(PaperBitwidths, IntegerExecTest,
                         ::testing::Values(4, 8, 16));

TEST(IntegerExec, RejectsOffGridWeights) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  Tensor w({1, 2}, std::vector<float>{0.1f, 0.2f});  // not on the 2^-6 grid
  Tensor b({1});
  EXPECT_THROW(lower_linear(w, b, fmt, fmt), std::invalid_argument);
}

TEST(IntegerExec, SaturatesLikeTheFloatPath) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(4);
  // all-max weights so the accumulator overflows the 4-bit output range
  Tensor w({1, 8}, 0.875f);
  Tensor b({1});
  IntegerLinear layer = lower_linear(w, b, fmt, fmt);
  Tensor x({1, 8}, 0.875f);
  Tensor y = integer_linear_forward(layer, x);
  Tensor yf = fake_quant_linear_forward(w, b, fmt, fmt, x);
  EXPECT_FLOAT_EQ(y[0], yf[0]);
  // both saturate at the top code of the 4-bit grid
  EXPECT_FLOAT_EQ(y[0], 0.875f);
}

TEST(IntegerExec, CodesStayInRange) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  util::Rng rng(13);
  Tensor w({4, 6});
  tensor::fill_normal(w, rng, 0.0f, 0.5f);
  Tensor wq = fixed_point_quantize(w, fmt);
  IntegerLinear layer = lower_linear(wq, Tensor({4}), fmt, fmt);
  const std::int32_t hi = (1 << (fmt.total_bits - 1)) - 1;
  for (std::int32_t c : layer.weight_codes) {
    EXPECT_LE(std::abs(c), hi + 1);
  }
}

}  // namespace
}  // namespace con::compress
