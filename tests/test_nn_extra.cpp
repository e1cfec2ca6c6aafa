#include <gtest/gtest.h>

#include <stdexcept>

#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace con::nn {
namespace {

using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

TEST(SgdTest, MomentumAcceleratesConstantGradient) {
  util::Rng rng(104);
  Sequential m("m");
  auto& fc = m.emplace<Linear>(2, 2, rng, "fc");
  Parameter& w = fc.weight();
  w.set_value(Tensor(w.value().shape()));
  Sgd sgd({&w}, SgdConfig{.learning_rate = 1.0f, .momentum = 0.5f});
  w.grad.fill(1.0f);
  sgd.step();
  const float after_one = w.value()[0];  // -1
  w.grad.fill(1.0f);
  sgd.step();
  const float delta_two = w.value()[0] - after_one;  // -(1 + 0.5)
  EXPECT_FLOAT_EQ(after_one, -1.0f);
  EXPECT_FLOAT_EQ(delta_two, -1.5f);
}

TEST(SgdTest, RespectsGradGate) {
  util::Rng rng(103);
  Sequential m("m");
  auto& fc = m.emplace<Linear>(4, 2, rng, "fc");
  Parameter& w = fc.weight();
  const Tensor before = w.value();
  // gate out index 0, let everything else flow
  w.grad.fill(1.0f);
  w.grad_gate = Tensor(w.value().shape(), 1.0f);
  w.grad_gate[0] = 0.0f;
  Sgd sgd({&w}, SgdConfig{.learning_rate = 0.1f, .momentum = 0.0f});
  sgd.step();
  EXPECT_EQ(w.value()[0], before[0]);
  for (Index i = 1; i < w.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(w.value()[i], before[i] - 0.1f) << "index " << i;
  }
  // A gate that does not cover the parameter is a caller bug, not a
  // partial mask.
  w.grad_gate = Tensor(Shape{3}, 1.0f);
  EXPECT_THROW(sgd.step(), std::logic_error);
}

TEST(LrSchedule, PaperScheduleHasThreeDecades) {
  StepLrSchedule s = StepLrSchedule::paper_schedule(0.01f, 100);
  EXPECT_FLOAT_EQ(s.lr_at_epoch(0), 0.01f);
  EXPECT_FLOAT_EQ(s.lr_at_epoch(30), 0.001f);
  EXPECT_FLOAT_EQ(s.lr_at_epoch(60), 0.0001f);
  EXPECT_FLOAT_EQ(s.lr_at_epoch(99), 0.00001f);
}

TEST(LrSchedule, TinyRunsStillDecay) {
  StepLrSchedule s = StepLrSchedule::paper_schedule(0.01f, 2);
  EXPECT_FLOAT_EQ(s.lr_at_epoch(0), 0.01f);
  EXPECT_LT(s.lr_at_epoch(1), 0.01f);
}

TEST(LrSchedule, MilestonesMustIncrease) {
  EXPECT_THROW(StepLrSchedule(0.01f, {5, 5}), std::invalid_argument);
  EXPECT_THROW(StepLrSchedule(-1.0f, {5}), std::invalid_argument);
}

}  // namespace
}  // namespace con::nn
