#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "compress/fixed_point.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "oracles/integer_exec.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::compress {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

TEST(FixedPointFormat, StepAndBounds) {
  FixedPointFormat q{.total_bits = 4, .integer_bits = 1};
  EXPECT_EQ(q.fraction_bits(), 3);
  EXPECT_FLOAT_EQ(q.step(), 0.125f);
  EXPECT_FLOAT_EQ(q.lo(), -1.0f);
  EXPECT_FLOAT_EQ(q.hi(), 0.875f);
}

TEST(FixedPointFormat, PaperAllocation) {
  // "1-bit integer when bitwidth is 4, 2-bit integer when bitwidth is 8,
  // 4-bit integers for the rest"
  EXPECT_EQ(FixedPointFormat::paper_format(4).integer_bits, 1);
  EXPECT_EQ(FixedPointFormat::paper_format(8).integer_bits, 2);
  EXPECT_EQ(FixedPointFormat::paper_format(16).integer_bits, 4);
  EXPECT_EQ(FixedPointFormat::paper_format(32).integer_bits, 4);
  EXPECT_THROW(FixedPointFormat::paper_format(1), std::invalid_argument);
  EXPECT_THROW(FixedPointFormat::paper_format(65), std::invalid_argument);
}

TEST(FixedPointFormat, ValidityRange) {
  EXPECT_TRUE((FixedPointFormat{.total_bits = 2, .integer_bits = 1}).valid());
  EXPECT_TRUE((FixedPointFormat{.total_bits = 64, .integer_bits = 1}).valid());
  EXPECT_TRUE((FixedPointFormat{.total_bits = 64, .integer_bits = 63}).valid());
  EXPECT_FALSE((FixedPointFormat{.total_bits = 1, .integer_bits = 1}).valid());
  EXPECT_FALSE((FixedPointFormat{.total_bits = 65, .integer_bits = 4}).valid());
  EXPECT_FALSE((FixedPointFormat{.total_bits = 8, .integer_bits = 0}).valid());
  EXPECT_FALSE((FixedPointFormat{.total_bits = 8, .integer_bits = 8}).valid());
  // The reported bug: 196 fraction bits underflow step() to zero.
  const FixedPointFormat huge{.total_bits = 200, .integer_bits = 4};
  EXPECT_FALSE(huge.valid());
  EXPECT_EQ(huge.step(), 0.0f);
  // Every valid format has a normal step with a finite reciprocal.
  const FixedPointFormat widest{.total_bits = 64, .integer_bits = 1};
  EXPECT_TRUE(std::isnormal(widest.step()));
  EXPECT_TRUE(std::isfinite(1.0f / widest.step()));
}

TEST(FixedPointFormat, QuantisersRejectInvalidFormats) {
  const FixedPointFormat huge{.total_bits = 200, .integer_bits = 4};
  const FixedPointFormat no_int{.total_bits = 8, .integer_bits = 0};
  EXPECT_THROW(QuantActivation{huge}, std::invalid_argument);
  EXPECT_THROW(QuantActivation{no_int}, std::invalid_argument);
  EXPECT_THROW(FixedPointWeightTransform{huge}, std::invalid_argument);
  EXPECT_THROW(FixedPointWeightTransform{no_int}, std::invalid_argument);
  // The tensor form rejects a zero step instead of emitting NaN.
  EXPECT_THROW(fixed_point_quantize(Tensor({3}, 0.5f), huge),
               std::invalid_argument);
}

TEST(FixedPointQuantize, RoundsToGrid) {
  FixedPointFormat q{.total_bits = 8, .integer_bits = 2};
  // step = 2^-6 = 0.015625
  EXPECT_FLOAT_EQ(fixed_point_quantize(0.02f, q), 0.015625f);
  EXPECT_FLOAT_EQ(fixed_point_quantize(0.0f, q), 0.0f);
  // -0.008 / step = -0.512 -> nearest grid point is -1 step
  EXPECT_FLOAT_EQ(fixed_point_quantize(-0.008f, q), -0.015625f);
  // -0.007 / step = -0.448 -> rounds to zero
  EXPECT_FLOAT_EQ(fixed_point_quantize(-0.007f, q), 0.0f);
}

TEST(FixedPointQuantize, SaturatesAtBounds) {
  FixedPointFormat q{.total_bits = 4, .integer_bits = 1};
  EXPECT_FLOAT_EQ(fixed_point_quantize(5.0f, q), 0.875f);
  EXPECT_FLOAT_EQ(fixed_point_quantize(-5.0f, q), -1.0f);
}

TEST(FixedPointQuantize, IdempotentOnGrid) {
  FixedPointFormat q{.total_bits = 8, .integer_bits = 2};
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const float v = rng.uniform_f(-3.0f, 3.0f);
    const float once = fixed_point_quantize(v, q);
    EXPECT_FLOAT_EQ(fixed_point_quantize(once, q), once);
  }
}

// Property sweep: quantisation error is bounded by step/2 inside the
// representable range, for every paper bitwidth.
class QuantErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantErrorBound, ErrorWithinHalfStep) {
  const FixedPointFormat q = FixedPointFormat::paper_format(GetParam());
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const float v = rng.uniform_f(q.lo(), q.hi());
    const float e = std::fabs(fixed_point_quantize(v, q) - v);
    EXPECT_LE(e, q.step() * 0.5f + 1e-7f);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperBitwidths, QuantErrorBound,
                         ::testing::Values(4, 8, 12, 16, 24, 32));

TEST(WeightTransform, GateBlocksSaturatedValues) {
  FixedPointWeightTransform t(FixedPointFormat{.total_bits = 4,
                                               .integer_bits = 1});
  Tensor raw({4}, std::vector<float>{0.5f, 2.0f, -3.0f, -0.25f});
  Tensor eff({4}), gate({4});
  t.apply(raw, eff, gate);
  EXPECT_FLOAT_EQ(eff[0], 0.5f);
  EXPECT_FLOAT_EQ(eff[1], 0.875f);   // clipped high
  EXPECT_FLOAT_EQ(eff[2], -1.0f);    // clipped low
  EXPECT_FLOAT_EQ(eff[3], -0.25f);
  EXPECT_FLOAT_EQ(gate[0], 1.0f);
  EXPECT_FLOAT_EQ(gate[1], 0.0f);
  EXPECT_FLOAT_EQ(gate[2], 0.0f);
  EXPECT_FLOAT_EQ(gate[3], 1.0f);
}

TEST(QuantActivationLayer, ForwardQuantisesBackwardGates) {
  QuantActivation layer(FixedPointFormat{.total_bits = 4, .integer_bits = 1});
  Tensor x({3}, std::vector<float>{0.3f, 1.7f, -0.06f});
  nn::TapeSlot slot;
  Tensor y = layer.forward(x, false, slot);
  EXPECT_FLOAT_EQ(y[0], 0.25f);
  EXPECT_FLOAT_EQ(y[1], 0.875f);  // saturated
  EXPECT_FLOAT_EQ(y[2], 0.0f);    // -0.06/0.125 = -0.48 rounds to zero
  Tensor g({3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  Tensor gx = layer.backward(g, slot);
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[1], 0.0f);  // gradient blocked at the clip
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(FixedPointQuantize, TensorFormMatchesPerValueReference) {
  for (int bits : {4, 8, 16, 32}) {
    const FixedPointFormat q = FixedPointFormat::paper_format(bits);
    const Tensor x = random_batch(Shape{3, 37}, 70 + bits);
    Tensor scaled = tensor::scale(x, 4.0f);  // reaches both saturation bounds
    const Tensor wq = fixed_point_quantize(scaled, q);
    for (Index i = 0; i < scaled.numel(); ++i) {
      EXPECT_EQ(wq[i], fixed_point_quantize(scaled[i], q)) << bits << " " << i;
    }
  }
}

TEST(QuantActivationLayer, RepeatForwardReusesTheGateStorage) {
  QuantActivation layer(FixedPointFormat::paper_format(8));
  const Tensor x = tensor::scale(random_batch(Shape{4, 50}, 71), 3.0f);
  nn::TapeSlot slot;
  (void)layer.forward(x, false, slot);  // first pass sizes the gate
  const float* gate_storage = slot.aux.data();
  const std::uint64_t before = Tensor::buffer_allocations();
  const Tensor y = layer.forward(x, false, slot);
  EXPECT_EQ(Tensor::buffer_allocations() - before, 1u)
      << "a repeat forward may allocate only its output";
  EXPECT_EQ(slot.aux.data(), gate_storage);
  // Backward still gates by the refreshed STE mask.
  Tensor g(x.shape(), 1.0f);
  const Tensor gx = layer.backward(g, slot);
  const FixedPointFormat f = layer.format();
  for (Index i = 0; i < x.numel(); ++i) {
    const float q = std::nearbyint(x[i] / f.step()) * f.step();
    const bool saturated = q < f.lo() || q > f.hi();
    EXPECT_EQ(gx[i], saturated ? 0.0f : 1.0f) << i;
    EXPECT_EQ(y[i], fixed_point_quantize(x[i], f)) << i;
  }
  // A smaller batch through the same slot fits the existing storage.
  const Tensor half = tensor::copy_rows(x, 0, 2);
  const std::uint64_t before_half = Tensor::buffer_allocations();
  (void)layer.forward(half, false, slot);
  EXPECT_EQ(Tensor::buffer_allocations() - before_half, 1u);
  EXPECT_EQ(slot.aux.shape(), half.shape());
}

TEST(QuantizeModel, InsertsActivationLayersAndTransforms) {
  nn::Sequential base = models::make_lenet5_small(7);
  const std::size_t n_before = base.num_layers();
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8)});
  EXPECT_GT(q.num_layers(), n_before);
  // every compressible parameter carries the transform
  for (nn::Parameter* p : q.parameters()) {
    if (p->compressible) {
      EXPECT_NE(p->transform(), nullptr) << p->name;
    } else {
      EXPECT_EQ(p->transform(), nullptr) << p->name;
    }
  }
  // the original model is untouched
  for (nn::Parameter* p : base.parameters()) EXPECT_EQ(p->transform(), nullptr);
}

TEST(QuantizeModel, WeightOnlyModeAddsNoLayers) {
  nn::Sequential base = models::make_lenet5_small(7);
  const std::size_t n_before = base.num_layers();
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8),
                            .quantize_activations = false});
  EXPECT_EQ(q.num_layers(), n_before);
}

TEST(QuantizeModel, OutputsLieOnQuantisedPath) {
  // With activation quantisation at 4 bits, all intermediate activations
  // must be within the format's representable range.
  nn::Sequential base = models::make_lenet5_small(7);
  const FixedPointFormat fmt = FixedPointFormat::paper_format(4);
  nn::Sequential q =
      quantize_model(base, QuantizeOptions{.format = fmt});
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 51);
  Tensor h = x;
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  for (std::size_t i = 0; i < q.num_layers(); ++i) {
    h = q.layer(i).forward(h, false, tape.slot(i));
    if (dynamic_cast<QuantActivation*>(&q.layer(i)) != nullptr) {
      EXPECT_GE(tensor::min_value(h), fmt.lo());
      EXPECT_LE(tensor::max_value(h), fmt.hi());
    }
  }
}

TEST(QuantizeModel, HighBitwidthPreservesPredictions) {
  // 32-bit fixed point (4.28) is a near-noop for trained-scale weights:
  // predictions must match the float model on random inputs.
  nn::Sequential base = models::make_lenet5_small(7);
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(32)});
  Tensor x = random_batch(Shape{8, 1, 28, 28}, 52);
  std::vector<int> pf = nn::predict(base, x);
  std::vector<int> pq = nn::predict(q, x);
  EXPECT_EQ(pf, pq);
}

TEST(StripQuantization, RemovesEverything) {
  nn::Sequential base = models::make_lenet5_small(7);
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(4)});
  nn::Sequential back = strip_quantization(q);
  EXPECT_EQ(back.num_layers(), base.num_layers());
  for (nn::Parameter* p : back.parameters()) EXPECT_EQ(p->transform(), nullptr);
}

TEST(QuantAwareTraining, StepImprovesQuantisedLoss) {
  // One SGD step through the STE must reduce the training loss of the
  // quantised model (sanity that gradients are usable).
  util::Rng rng(61);
  nn::Sequential base("tiny");
  base.emplace<nn::Linear>(8, 10, rng, "fc");
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8)});
  Tensor x = random_batch(Shape{16, 8}, 62);
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 10);
  const double before = nn::evaluate_loss(q, x, labels);
  nn::TrainConfig tc;
  tc.epochs = 12;
  tc.batch_size = 16;
  tc.base_lr = 0.1f;
  tc.use_paper_lr_schedule = false;
  nn::train_classifier(q, x, labels, tc);
  const double after = nn::evaluate_loss(q, x, labels);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace con::compress
