#include <gtest/gtest.h>

#include <optional>

#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "test_helpers.h"

namespace con::models {
namespace {

using con::testing::random_batch;
using tensor::Shape;

TEST(ModelZoo, LeNet5ParameterCountMatchesPaper) {
  nn::Sequential m = make_lenet5(1);
  // the paper quotes "431K parameters"
  EXPECT_EQ(m.num_parameters(), 431080);
}

TEST(ModelZoo, CifarNetParameterCountMatchesPaper) {
  nn::Sequential m = make_cifarnet(1);
  // the paper quotes "1.3M parameters"
  EXPECT_NEAR(static_cast<double>(m.num_parameters()), 1.3e6, 0.05e6);
}

TEST(ModelZoo, LeNet5ForwardShape) {
  nn::Sequential m = make_lenet5(2);
  auto y = m.forward(random_batch(Shape{3, 1, 28, 28}, 1), false);
  EXPECT_EQ(y.shape(), Shape({3, 10}));
}

TEST(ModelZoo, LeNet5ClassicForwardShape) {
  nn::Sequential m = make_model("lenet5-classic", 2);
  auto y = m.forward(random_batch(Shape{2, 1, 28, 28}, 1), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
  EXPECT_EQ(m.num_parameters(), 61706);  // the classic LeNet5 size
}

TEST(ModelZoo, CifarNetForwardShape) {
  nn::Sequential m = make_cifarnet(3);
  auto y = m.forward(random_batch(Shape{2, 3, 32, 32}, 2), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(ModelZoo, SmallVariantShapes) {
  nn::Sequential l = make_lenet5_small(4);
  EXPECT_EQ(l.forward(random_batch(Shape{2, 1, 28, 28}, 3), false).shape(),
            Shape({2, 10}));
  nn::Sequential c = make_cifarnet_small(4);
  EXPECT_EQ(c.forward(random_batch(Shape{2, 3, 32, 32}, 4), false).shape(),
            Shape({2, 10}));
}

TEST(ModelZoo, MakeModelDispatch) {
  EXPECT_EQ(make_model("lenet5", 1).name(), "lenet5");
  EXPECT_EQ(make_model("cifarnet-small", 1).name(), "cifarnet-small");
  EXPECT_THROW(make_model("resnet50", 1), std::invalid_argument);
}

TEST(ModelZoo, InputSpecs) {
  EXPECT_EQ(input_spec("lenet5").channels, 1);
  EXPECT_EQ(input_spec("lenet5-small").height, 28);
  EXPECT_EQ(input_spec("cifarnet").channels, 3);
  EXPECT_EQ(input_spec("cifarnet").width, 32);
  EXPECT_THROW(input_spec("vgg"), std::invalid_argument);
}

TEST(ModelZoo, SeedsChangeInitialisation) {
  nn::Sequential a = make_lenet5_small(1);
  nn::Sequential b = make_lenet5_small(2);
  EXPECT_NE(a.parameters()[0]->value()[0], b.parameters()[0]->value()[0]);
  nn::Sequential a2 = make_lenet5_small(1);
  EXPECT_EQ(a.parameters()[0]->value()[0], a2.parameters()[0]->value()[0]);
}

TEST(ModelZoo, ParameterNamesAreUnique) {
  nn::Sequential m = make_cifarnet(5);
  std::set<std::string> names;
  for (nn::Parameter* p : m.parameters()) {
    EXPECT_TRUE(names.insert(p->name).second) << "duplicate " << p->name;
  }
}

// Sequential's two group loops are the only timing site: one train-mode
// forward and one backward of LeNet5 record each group head exactly once,
// ReLUs fused into a Conv2d/Linear get no instrument of their own, and
// each group's span nests inside the model's.
TEST(SequentialTiming, EveryGroupIsTimedExactlyOnce) {
  const auto count_of =
      [](const std::string& name) -> std::optional<std::uint64_t> {
    for (const auto& d : obs::snapshot_metrics().distributions) {
      if (d.name == name) return d.count;
    }
    return std::nullopt;
  };
  // Run alone (as ctest runs it), the process has registered no relu1
  // instrument; in a whole-suite run another suite's unfused relu1 may
  // have.
  const bool relu1_known = count_of("relu1.forward_ns").has_value();
  nn::Sequential m = make_lenet5(3);
  obs::reset_metrics();
  obs::clear_trace();
  obs::set_tracing(true);
  nn::ForwardTape tape(/*accumulate_param_grads=*/true);
  const tensor::Tensor y =
      m.forward(random_batch(Shape{2, 1, 28, 28}, 4), /*train=*/true, tape);
  (void)m.backward(random_batch(y.shape(), 5), tape);
  obs::set_tracing(false);

  for (const char* name :
       {"pool1.forward_ns", "pool2.forward_ns", "flatten.forward_ns",
        "conv1.forward_ns", "conv1.backward_ns", "fc1.forward_ns",
        "fc1.backward_ns", "pool1.backward_ns"}) {
    EXPECT_EQ(count_of(name), std::optional<std::uint64_t>(1)) << name;
  }
  // relu1 runs in conv1's epilogue: no instrument of its own.
  if (!relu1_known) {
    EXPECT_EQ(count_of("relu1.forward_ns"), std::nullopt);
    EXPECT_EQ(count_of("relu1.backward_ns"), std::nullopt);
  }
  EXPECT_EQ(count_of("relu1.forward_ns").value_or(0), 0u);
  EXPECT_EQ(count_of("relu1.backward_ns").value_or(0), 0u);

  const obs::Json trace = obs::parse_json(obs::chrome_trace_json());
  obs::clear_trace();
  const obs::Json* model_span = nullptr;
  const obs::Json* pool_span = nullptr;
  for (const obs::Json& e : trace.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X" ||
        e.find("tid")->as_int() != obs::this_thread_id()) {
      continue;
    }
    const std::string& name = e.find("name")->as_string();
    if (name == m.name() + ".forward") model_span = &e;
    if (name == "pool1.fwd") pool_span = &e;
  }
  ASSERT_NE(model_span, nullptr);
  ASSERT_NE(pool_span, nullptr);
  const double outer_ts = model_span->find("ts")->as_double();
  const double inner_ts = pool_span->find("ts")->as_double();
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + pool_span->find("dur")->as_double(),
            outer_ts + model_span->find("dur")->as_double());
  EXPECT_GT(pool_span->find("args")->find("depth")->as_int(),
            model_span->find("args")->find("depth")->as_int());
}

}  // namespace
}  // namespace con::models
