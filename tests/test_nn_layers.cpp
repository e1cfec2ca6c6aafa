#include <gtest/gtest.h>

#include <limits>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/reshape.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::nn {
namespace {

using con::testing::max_gradient_error;
using con::testing::model_loss;
using con::testing::numerical_gradient;
using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

TEST(Linear, ForwardMatchesHandComputation) {
  util::Rng rng(1);
  Linear layer(2, 2, rng, "fc");
  layer.weight().set_value(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  layer.bias().set_value(Tensor({2}, std::vector<float>{0.5f, -0.5f}));
  Tensor x({1, 2}, std::vector<float>{1, 1});
  TapeSlot slot;
  Tensor y = layer.forward(x, false, slot);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at({0, 1}), 6.5f);   // 3+4-0.5
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(1);
  Linear layer(3, 2, rng);
  TapeSlot slot;
  EXPECT_THROW(layer.forward(Tensor({1, 4}), false, slot),
               std::invalid_argument);
}

TEST(Conv2d, OutputShape) {
  util::Rng rng(2);
  Conv2d conv(Conv2dSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                         .stride = 1, .padding = 1},
              rng);
  Tensor x = random_batch(Shape{2, 3, 8, 8}, 3);
  TapeSlot slot;
  Tensor y = conv.forward(x, false, slot);
  EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, KnownAveragingKernel) {
  util::Rng rng(2);
  Conv2d conv(Conv2dSpec{.in_channels = 1, .out_channels = 1, .kernel = 2},
              rng);
  conv.weight().set_value(Tensor(conv.weight().value().shape(), 0.25f));
  conv.bias().set_value(Tensor(conv.bias().value().shape()));
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  TapeSlot slot;
  Tensor y = conv.forward(x, false, slot);
  ASSERT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(MaxPool2d, ForwardSelectsWindowMax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  TapeSlot slot;
  Tensor y = pool.forward(x, false, slot);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  TapeSlot slot;
  pool.forward(x, false, slot);
  Tensor g({1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor gx = pool.backward(g, slot);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, WindowWithNothingAboveNegInfRoutesToItsOwnImage) {
  // Image 1 holds only -inf and NaN, so none of its windows has an element
  // above -inf. Its gradient must stay in image 1 (each window's first
  // element), never leak into image 0 — for the 2×2/stride-2 kernel-table
  // path and for the generic loop alike.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Index window : {Index(2), Index(3)}) {
    const Index stride = window == 2 ? 2 : 1;
    MaxPool2d pool(window, stride);
    Tensor x({2, 1, 4, 4});
    for (Index i = 0; i < 16; ++i) {
      x[i] = static_cast<float>(i % 5);
      x[16 + i] = i % 3 == 0 ? nan : -inf;
    }
    TapeSlot slot;
    const Tensor y = pool.forward(x, false, slot);
    const Index per_image = y.numel() / 2;
    const Tensor gx = pool.backward(Tensor(y.shape(), 1.0f), slot);
    float image0 = 0.0f, image1 = 0.0f;
    for (Index i = 0; i < 16; ++i) {
      image0 += gx[i];
      image1 += gx[16 + i];
    }
    EXPECT_EQ(image0, static_cast<float>(per_image)) << "window " << window;
    EXPECT_EQ(image1, static_cast<float>(per_image)) << "window " << window;
    const Index ow = (4 - window) / stride + 1;
    for (Index o = 0; o < per_image; ++o) {
      const Index first = 16 + (o / ow) * stride * 4 + (o % ow) * stride;
      EXPECT_EQ(slot.indices[static_cast<std::size_t>(per_image + o)], first)
          << "window " << window << " output " << o;
      EXPECT_EQ(y[per_image + o], -inf);
    }
  }
}

TEST(ReLUTest, ForwardZeroesNegatives) {
  ReLU relu;
  Tensor x({3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
  TapeSlot slot;
  Tensor y = relu.forward(x, false, slot);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flat;
  Tensor x = random_batch(Shape{2, 3, 4, 4}, 9);
  TapeSlot slot;
  Tensor y = flat.forward(x, false, slot);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  Tensor gx = flat.backward(y, slot);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5, 123);
  Tensor x = random_batch(Shape{2, 10}, 10);
  TapeSlot slot;
  Tensor y = drop.forward(x, /*train=*/false, slot);
  for (Index i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(DropoutTest, TrainModeDropsAndRescales) {
  Dropout drop(0.5, 123);
  Tensor x({1, 1000}, std::vector<float>(1000, 1.0f));
  TapeSlot slot;
  Tensor y = drop.forward(x, /*train=*/true, slot);
  Index zeros = 0;
  for (Index i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // inverted dropout rescale
    }
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 3}, std::vector<float>{1, 2, 3, -1, 0, 100});
  Tensor p = softmax(logits);
  for (Index r = 0; r < 2; ++r) {
    double s = 0.0;
    for (Index c = 0; c < 3; ++c) s += p.at({r, c});
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  // extreme logits stay finite (numerical stability)
  EXPECT_NEAR(p.at({1, 2}), 1.0f, 1e-5);
}

TEST(CrossEntropy, KnownValue) {
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits({1, 4});
  LossResult r = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5);
}

TEST(CrossEntropy, GradientIsSoftmaxMinusOneHot) {
  Tensor logits({1, 3}, std::vector<float>{0.2f, -0.1f, 0.5f});
  LossResult r = softmax_cross_entropy(logits, {1});
  Tensor p = softmax(logits);
  EXPECT_NEAR(r.grad_logits.at({0, 0}), p.at({0, 0}), 1e-6);
  EXPECT_NEAR(r.grad_logits.at({0, 1}), p.at({0, 1}) - 1.0f, 1e-6);
  EXPECT_NEAR(r.grad_logits.at({0, 2}), p.at({0, 2}), 1e-6);
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::out_of_range);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

// ---- numerical gradient checks ---------------------------------------------
// These are the single most important tests in the repository: every attack
// depends on ∇ₓJ being exactly right through every layer type.

class GradientCheck : public ::testing::Test {
 protected:
  // Builds a model covering the layer types under test, returns loss as a
  // function of the input, and compares analytic vs numeric input grads.
  void check_input_gradient(Sequential& model, const Tensor& x,
                            const std::vector<int>& labels,
                            double tolerance = 2e-2) {
    auto f = [&](const Tensor& probe) {
      return model_loss(model, probe, labels);
    };
    model.zero_grad();
    Tensor logits = model.forward(x, false);
    LossResult loss = softmax_cross_entropy(logits, labels);
    Tensor analytic = model.backward(loss.grad_logits);
    Tensor numeric = numerical_gradient(f, x);
    EXPECT_LT(max_gradient_error(analytic, numeric), tolerance);
  }

  void check_param_gradient(Sequential& model, Parameter& p, const Tensor& x,
                            const std::vector<int>& labels,
                            double tolerance = 2e-2) {
    auto f = [&](const Tensor& w) {
      const Tensor saved = p.value();
      p.set_value(w);
      const double loss = model_loss(model, x, labels);
      p.set_value(saved);
      return loss;
    };
    model.zero_grad();
    Tensor logits = model.forward(x, false);
    LossResult loss = softmax_cross_entropy(logits, labels);
    model.backward(loss.grad_logits);
    Tensor numeric = numerical_gradient(f, p.value());
    EXPECT_LT(max_gradient_error(p.grad, numeric), tolerance);
  }
};

TEST_F(GradientCheck, LinearInputAndParams) {
  util::Rng rng(21);
  Sequential m("m");
  auto& fc = m.emplace<Linear>(6, 4, rng, "fc");
  Tensor x = random_batch(Shape{3, 6}, 22);
  std::vector<int> labels = {0, 2, 3};
  check_input_gradient(m, x, labels);
  check_param_gradient(m, fc.weight(), x, labels);
  check_param_gradient(m, fc.bias(), x, labels);
}

TEST_F(GradientCheck, ConvInputAndParams) {
  util::Rng rng(23);
  Sequential m("m");
  auto& conv = m.emplace<Conv2d>(
      Conv2dSpec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                 .stride = 1, .padding = 1},
      rng, "conv");
  m.emplace<Flatten>();
  Tensor x = random_batch(Shape{2, 2, 4, 4}, 24);
  std::vector<int> labels = {5, 11};
  check_input_gradient(m, x, labels);
  check_param_gradient(m, conv.weight(), x, labels);
  check_param_gradient(m, conv.bias(), x, labels);
}

TEST_F(GradientCheck, ConvWithStride) {
  util::Rng rng(25);
  Sequential m("m");
  auto& conv = m.emplace<Conv2d>(
      Conv2dSpec{.in_channels = 1, .out_channels = 2, .kernel = 2,
                 .stride = 2},
      rng, "conv");
  m.emplace<Flatten>();
  Tensor x = random_batch(Shape{2, 1, 6, 6}, 26);
  std::vector<int> labels = {1, 8};
  check_input_gradient(m, x, labels);
  check_param_gradient(m, conv.weight(), x, labels);
}

TEST_F(GradientCheck, ReluChain) {
  util::Rng rng(27);
  Sequential m("m");
  m.emplace<Linear>(5, 8, rng, "fc1");
  m.emplace<ReLU>();
  m.emplace<Linear>(8, 3, rng, "fc2");
  // Shift inputs away from the ReLU kink where the numerical gradient is
  // undefined.
  Tensor x = random_batch(Shape{2, 5}, 28);
  std::vector<int> labels = {0, 2};
  check_input_gradient(m, x, labels);
}

TEST_F(GradientCheck, FullCnnStack) {
  util::Rng rng(31);
  Sequential m("m");
  m.emplace<Conv2d>(Conv2dSpec{.in_channels = 1, .out_channels = 2,
                               .kernel = 3, .stride = 1, .padding = 1},
                    rng, "conv1");
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2, 2);
  m.emplace<Flatten>();
  m.emplace<Linear>(2 * 3 * 3, 4, rng, "fc");
  Tensor x = random_batch(Shape{2, 1, 6, 6}, 32);
  std::vector<int> labels = {0, 3};
  check_input_gradient(m, x, labels);
}

TEST_F(GradientCheck, MaskedLinearGradientFlowsThroughMask) {
  // With a mask attached, the input gradient must use the masked weights.
  util::Rng rng(33);
  Sequential m("m");
  auto& fc = m.emplace<Linear>(4, 3, rng, "fc");
  Tensor mask(fc.weight().value().shape(), 1.0f);
  mask[0] = 0.0f;  // prune one weight
  mask[5] = 0.0f;
  fc.weight().set_mask(std::move(mask));
  Tensor x = random_batch(Shape{2, 4}, 34);
  std::vector<int> labels = {0, 2};
  check_input_gradient(m, x, labels);
}

TEST(SequentialTest, CloneIsDeepCopy) {
  util::Rng rng(41);
  Sequential m("orig");
  m.emplace<Linear>(3, 2, rng, "fc");
  Sequential c = m.clone();
  // mutate the clone; original must not change
  c.parameters()[0]->edit([](Tensor& w, Tensor&) { w.fill(0.0f); });
  EXPECT_NE(m.parameters()[0]->value()[0], 0.0f);
  EXPECT_EQ(c.num_layers(), m.num_layers());
}

TEST(SequentialTest, InsertPlacesLayer) {
  util::Rng rng(42);
  Sequential m("m");
  m.emplace<Linear>(3, 3, rng, "fc1");
  m.emplace<Linear>(3, 2, rng, "fc2");
  m.insert(1, std::make_unique<ReLU>("inserted"));
  EXPECT_EQ(m.layer(1).name(), "inserted");
  EXPECT_EQ(m.num_layers(), 3u);
  EXPECT_THROW(m.insert(7, std::make_unique<ReLU>()), std::out_of_range);
}

TEST(SequentialTest, DensityReflectsMasks) {
  util::Rng rng(43);
  Sequential m("m");
  auto& fc = m.emplace<Linear>(10, 10, rng, "fc");
  EXPECT_DOUBLE_EQ(m.density(), 1.0);
  Tensor mask(fc.weight().value().shape(), 1.0f);
  for (Index i = 0; i < 50; ++i) mask[i] = 0.0f;
  fc.weight().set_mask(std::move(mask));
  EXPECT_DOUBLE_EQ(m.density(), 0.5);
}

}  // namespace
}  // namespace con::nn
