// Oracle tests for nn::Sequential's fused groups (DESIGN.md §5).
//
// A Conv2d or Linear runs the ReLU and activation fake-quant layers that
// follow it in its output epilogue, and the group's backward applies their
// combined mask in one pass. Every output, input gradient and parameter
// gradient must equal, bit for bit (memcmp), the layer-by-layer walk
// through the standalone layers: on every zoo network, float and through
// quantize_model at 4, 8 and 16 bits, in train and eval mode, with and
// without parameter gradients, on every kernel table the host runs, on a
// 4-thread pool and again in a fresh process whose pool has one thread.
// integer_forward, which folds a grouped ReLU into the int8 requantiser,
// must still match the compress::integer_exec oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/fixed_point.h"
#include "compress/integer_model.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/reshape.h"
#include "nn/sequential.h"
#include "nn/tape.h"
#include "oracles/integer_exec.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace con {
namespace {

using compress::FixedPointFormat;
using compress::QuantActivation;
using compress::QuantizeOptions;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;
namespace kernels = tensor::kernels;
using testing::random_batch;
using testing::simd_isas;

// The in-process runs use a 4-thread pool whatever the host has; set
// before any pool use.
const bool kForcePool = [] {
  util::ThreadPool::set_global_threads(4);
  return true;
}();

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

nn::Sequential quantized(const nn::Sequential& base, int bits) {
  return compress::quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(bits)});
}

// What one forward + backward produced.
struct Pass {
  Tensor out;
  Tensor dx;
  std::vector<Tensor> grads;
};

std::vector<Tensor> param_grads(nn::Sequential& m) {
  std::vector<Tensor> grads;
  for (const nn::Parameter* p : m.parameters()) grads.push_back(p->grad);
  return grads;
}

// The oracle: every layer on its own, each with its own slot.
Pass layer_by_layer(nn::Sequential& m, const Tensor& x, const Tensor& gy,
                    bool train, bool accumulate) {
  m.zero_grad();
  std::vector<nn::TapeSlot> slots(m.num_layers());
  Tensor h = x;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    slots[i].accumulate_param_grads = accumulate;
    h = m.layer(i).forward(h, train, slots[i]);
  }
  Tensor g = gy;
  for (std::size_t i = m.num_layers(); i-- > 0;) {
    g = m.layer(i).backward(g, slots[i]);
  }
  return {h, g, param_grads(m)};
}

Pass fused(nn::Sequential& m, const Tensor& x, const Tensor& gy, bool train,
           bool accumulate) {
  m.zero_grad();
  nn::ForwardTape tape(accumulate);
  Tensor out = m.forward(x, train, tape);
  Tensor dx = m.backward(gy, tape);
  return {out, dx, param_grads(m)};
}

// "" when the two passes agree bit for bit, else what differs.
std::string compare(const Pass& want, const Pass& got) {
  if (!same_bits(want.out, got.out)) return "output";
  if (!same_bits(want.dx, got.dx)) return "input gradient";
  if (want.grads.size() != got.grads.size()) return "parameter count";
  for (std::size_t i = 0; i < want.grads.size(); ++i) {
    if (!same_bits(want.grads[i], got.grads[i])) {
      return "gradient of parameter " + std::to_string(i);
    }
  }
  return "";
}

// The oracle against the fused pass on two clones of `model` (a Dropout's
// RNG is cloned too, so train mode draws the same masks), in train and
// eval mode, with and without parameter gradients.
std::string fused_mismatch(const nn::Sequential& model, const Tensor& x,
                           const Tensor& gy) {
  for (const bool train : {false, true}) {
    for (const bool accumulate : {false, true}) {
      nn::Sequential a = model.clone();
      nn::Sequential b = model.clone();
      const std::string bad =
          compare(layer_by_layer(a, x, gy, train, accumulate),
                  fused(b, x, gy, train, accumulate));
      if (!bad.empty()) {
        return model.name() + (train ? " train" : " eval") +
               (accumulate ? " +grads: " : ": ") + bad;
      }
    }
  }
  return "";
}

// A logits gradient with negative entries and both signed zeros.
Tensor logits_grad(Index batch, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor gy({batch, 10});
  tensor::fill_normal(gy, rng, 0.0f, 1.0f);
  gy[0] = -0.0f;
  gy[1] = 0.0f;
  gy[2] = -std::fabs(gy[2]);
  return gy;
}

// `model` with every compressible weight masked to about 8% density, so
// its products take the sparse row-axpy path.
nn::Sequential pruned(const nn::Sequential& model) {
  nn::Sequential m = model.clone();
  m.set_name(model.name() + "-pruned");
  util::Rng rng(17);
  for (nn::Parameter* p : m.parameters()) {
    if (!p->compressible) continue;
    Tensor mask(p->value().shape());
    for (float& v : mask.flat()) v = rng.uniform_f(0.0f, 1.0f) < 0.08f;
    p->set_mask(std::move(mask));
  }
  return m;
}

// Every zoo network, float and quantised at 4, 8 and 16 bits, plus a
// pruned lenet5-small.
std::string zoo_mismatch() {
  for (const char* name : {"lenet5", "lenet5-classic", "cifarnet",
                           "lenet5-small", "cifarnet-small",
                           "lenet5-small-pruned"}) {
    const std::string net = name;
    const bool prune = net.ends_with("-pruned");
    const nn::Sequential base =
        prune ? pruned(models::make_model("lenet5-small", 5))
              : models::make_model(net, 5);
    const models::InputSpec in = models::input_spec(net);
    const Tensor x = random_batch(Shape{2, in.channels, in.height, in.width},
                                  90 + in.height);
    const Tensor gy = logits_grad(2, 91);
    std::string bad = fused_mismatch(base, x, gy);
    for (const int bits : {4, 8, 16}) {
      if (!bad.empty()) break;
      bad = fused_mismatch(quantized(base, bits), x, gy);
    }
    if (!bad.empty()) {
      return bad + " on " + kernels::isa_name(kernels::active_isa());
    }
  }
  return "";
}

// Runs `grid` on every kernel table; "" when all agree.
template <typename Grid>
std::string on_every_isa(Grid grid) {
  for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
    kernels::ScopedIsa scoped(isa);
    const std::string bad = grid();
    if (!bad.empty()) return bad;
  }
  return "";
}

// Runs `grid` on every table in a freshly started copy of this binary
// whose global pool has one thread, then in-process on the 4-thread pool.
template <typename Grid>
void expect_match_on_1_and_4_threads(Grid grid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        util::ThreadPool::set_global_threads(1);
        if (util::ThreadPool::global().size() != 1) std::exit(2);
        const std::string bad = on_every_isa(grid);
        if (!bad.empty()) std::fprintf(stderr, "mismatch: %s\n", bad.c_str());
        std::exit(bad.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(on_every_isa(grid), "");
}

TEST(FusedTail, ZooNetworksMatchLayerByLayer) {
  expect_match_on_1_and_4_threads(zoo_mismatch);
}

// Lanes chosen for the 4-bit grid (step 1/8, lo = -1, hi = 7/8): saturate
// at lo, saturate at hi, round exactly onto hi, tie above hi to even (and
// saturate), round to -0, ±0, interior values.
const std::vector<float> kEdgeLanes = {-3.0f,  2.0f,   0.9f,    0.9375f,
                                       -0.01f, 0.0f,   -0.0f,   0.3f,
                                       -0.4f,  0.875f, -1.0f,   0.06f,
                                       -0.06f, 1.0f,   -0.9375f, 0.5f};

// A 1×1 conv over the lanes (channel 0 passes them through exactly,
// channel 1 negates them and adds 1/16) and an identity Linear, each
// followed by `tail_layers`.
std::vector<nn::Sequential> edge_models(
    const std::vector<std::unique_ptr<nn::Layer>>& tail_layers) {
  util::Rng rng(3);
  const Index n = static_cast<Index>(kEdgeLanes.size());
  nn::Sequential conv_model("edge-conv");
  auto& conv = conv_model.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 1, .out_channels = 2, .kernel = 1}, rng,
      "conv");
  conv.weight().set_value(Tensor({2, 1}, std::vector<float>{1.0f, -1.0f}));
  conv.bias().set_value(Tensor({2}, std::vector<float>{0.0f, 0.0625f}));
  nn::Sequential linear_model("edge-linear");
  auto& lin = linear_model.emplace<nn::Linear>(n, n, rng, "fc");
  Tensor identity({n, n});
  for (Index i = 0; i < n; ++i) identity[i * n + i] = 1.0f;
  lin.weight().set_value(std::move(identity));
  lin.bias().set_value(Tensor({n}));
  for (const auto& layer : tail_layers) {
    conv_model.add(layer->clone());
    linear_model.add(layer->clone());
  }
  std::vector<nn::Sequential> out;
  out.push_back(std::move(conv_model));
  out.push_back(std::move(linear_model));
  return out;
}

std::string edge_mismatch() {
  const FixedPointFormat f4 = FixedPointFormat::paper_format(4);
  const FixedPointFormat f8 = FixedPointFormat::paper_format(8);
  std::vector<std::vector<std::unique_ptr<nn::Layer>>> tails(5);
  tails[0].push_back(std::make_unique<nn::ReLU>("relu"));
  tails[1].push_back(std::make_unique<QuantActivation>(f4, "q"));
  tails[2].push_back(std::make_unique<QuantActivation>(f4, "q1"));
  tails[2].push_back(std::make_unique<nn::ReLU>("relu"));
  tails[2].push_back(std::make_unique<QuantActivation>(f4, "q2"));
  // A different grid after the ReLU is not absorbed.
  tails[3].push_back(std::make_unique<QuantActivation>(f8, "q1"));
  tails[3].push_back(std::make_unique<nn::ReLU>("relu"));
  tails[3].push_back(std::make_unique<QuantActivation>(f4, "q2"));
  // ReLU first: the fake-quant after it runs on its own.
  tails[4].push_back(std::make_unique<nn::ReLU>("relu"));
  tails[4].push_back(std::make_unique<QuantActivation>(f4, "q"));
  const Index n = static_cast<Index>(kEdgeLanes.size());
  const Tensor x_conv({2, 1, 1, n}, [&] {
    std::vector<float> v = kEdgeLanes;
    for (float f : kEdgeLanes) v.push_back(-f);
    return v;
  }());
  const Tensor x_lin = x_conv.reshaped({2, n});
  for (std::size_t t = 0; t < tails.size(); ++t) {
    std::vector<nn::Sequential> models = edge_models(tails[t]);
    for (nn::Sequential& m : models) {
      const bool conv = m.name() == "edge-conv";
      const Tensor& x = conv ? x_conv : x_lin;
      util::Rng rng(40 + t);
      Tensor gy(conv ? Shape{2, 2, 1, n} : Shape{2, n});
      tensor::fill_normal(gy, rng, 0.0f, 1.0f);
      for (Index i = 0; i < gy.numel(); i += 3) gy[i] = -std::fabs(gy[i]);
      // Infinite gradients on lane 0 (x = -3: saturates at lo, then the
      // ReLU zeroes it) and lane 1 (x = 2: saturates at hi). A zeroed lane
      // must give +0 where multiplying by 0 would give NaN; the sign of a
      // zero gradient alone never reaches dx or the parameter gradients,
      // because the GEMMs skip ±0 alike.
      gy[0] = std::numeric_limits<float>::infinity();
      gy[1] = -std::numeric_limits<float>::infinity();
      gy[4] = -0.0f;
      gy[6] = 0.0f;
      const std::string bad = fused_mismatch(m, x, gy);
      if (!bad.empty()) {
        return "tail " + std::to_string(t) + " " + bad + " on " +
               kernels::isa_name(kernels::active_isa());
      }
    }
  }
  return "";
}

TEST(FusedTail, EdgeLanesMatchLayerByLayer) {
  expect_match_on_1_and_4_threads(edge_mismatch);
}

TEST(FusedTail, MaskCoversKilledGatedAndPassingLanes) {
  // The edge lanes through conv → q4 → relu → q4 must exercise all three
  // mask values, or the oracle comparison above proves less than it says.
  const FixedPointFormat f4 = FixedPointFormat::paper_format(4);
  std::vector<std::unique_ptr<nn::Layer>> tail;
  tail.push_back(std::make_unique<QuantActivation>(f4, "q1"));
  tail.push_back(std::make_unique<nn::ReLU>("relu"));
  tail.push_back(std::make_unique<QuantActivation>(f4, "q2"));
  nn::Sequential m = std::move(edge_models(tail)[0]);
  ASSERT_EQ(m.groups().size(), 1u);
  const Index n = static_cast<Index>(kEdgeLanes.size());
  nn::ForwardTape tape(false);
  (void)m.forward(Tensor({1, 1, 1, n}, kEdgeLanes), false, tape);
  int killed = 0, gated = 0, passed = 0;
  for (float v : tape.slot(0).aux.flat()) {
    killed += v == -1.0f;
    gated += v == 0.0f;
    passed += v == 1.0f;
  }
  EXPECT_GT(killed, 0);
  EXPECT_GT(gated, 0);
  EXPECT_GT(passed, 0);
  EXPECT_EQ(killed + gated + passed, 2 * n);
  // Nothing is kept in the absorbed layers' slots.
  for (std::size_t i = 1; i < m.num_layers(); ++i) {
    EXPECT_TRUE(tape.slot(i).aux.empty()) << i;
    EXPECT_TRUE(tape.slot(i).input.empty()) << i;
  }
}

TEST(FusedTail, KernelEntriesMatchScalar) {
  // relu_mask and tail_bwd on every SIMD table against scalar, over
  // lengths with and without a vector remainder.
  const std::vector<float> lanes = {-3.0f, 2.0f,  0.0f,  -0.0f, 0.5f,
                                    -0.5f, 1e-30f, -1e-30f, 7.0f,  -7.0f,
                                    0.25f, -2.0f, 3.0f};
  const kernels::KernelTable* scalar = nullptr;
  {
    kernels::ScopedIsa s(kernels::Isa::kScalar);
    scalar = &kernels::active();
  }
  for (kernels::Isa isa : simd_isas()) {
    kernels::ScopedIsa scoped(isa);
    const kernels::KernelTable& kt = kernels::active();
    for (const Index n : {Index{5}, Index{8}, Index{13}}) {
      for (const bool gated : {false, true}) {
        std::vector<float> gate(static_cast<std::size_t>(n));
        for (Index i = 0; i < n; ++i) gate[i] = i % 3 == 0 ? 0.0f : 1.0f;
        std::vector<float> x0(lanes.begin(), lanes.begin() + n), x1 = x0;
        std::vector<float> m0(gate), m1(gate);
        scalar->relu_mask(x0.data(), m0.data(), gated ? m0.data() : nullptr, n);
        kt.relu_mask(x1.data(), m1.data(), gated ? m1.data() : nullptr, n);
        ASSERT_EQ(0, std::memcmp(x0.data(), x1.data(), n * sizeof(float)));
        ASSERT_EQ(0, std::memcmp(m0.data(), m1.data(), n * sizeof(float)));
        std::vector<float> g0(lanes.rbegin(), lanes.rbegin() + n), g1 = g0;
        scalar->tail_bwd(g0.data(), m0.data(), n);
        kt.tail_bwd(g1.data(), m1.data(), n);
        ASSERT_EQ(0, std::memcmp(g0.data(), g1.data(), n * sizeof(float)))
            << kernels::isa_name(isa) << " n=" << n;
      }
    }
  }
}

// "conv1+relu1 | pool1 | …": each group's layers, joined by '+'.
std::string describe_groups(const nn::Sequential& m) {
  std::string s;
  for (const nn::Sequential::Group& g : m.groups()) {
    if (!s.empty()) s += " | ";
    for (std::size_t i = g.first; i < g.end; ++i) {
      if (i > g.first) s += "+";
      s += m.layer(i).name();
    }
  }
  return s;
}

TEST(FusedTail, GroupsFollowInsertQuantizeAndStrip) {
  const nn::Sequential base = models::make_lenet5_small(3);
  const std::string float_groups =
      "conv1+relu1 | pool1 | conv2+relu2 | pool2 | flatten | fc1+relu3 | fc2";
  EXPECT_EQ(describe_groups(base), float_groups);
  EXPECT_EQ(describe_groups(base.clone()), float_groups);
  nn::Sequential q = quantized(base, 8);
  EXPECT_EQ(describe_groups(q),
            "quant_in | conv1+quant_conv1+relu1+quant_relu1 | pool1 | "
            "conv2+quant_conv2+relu2+quant_relu2 | pool2 | flatten | "
            "fc1+quant_fc1+relu3+quant_relu3 | fc2+quant_fc2");
  EXPECT_EQ(describe_groups(compress::strip_quantization(q)), float_groups);
  // A layer inserted inside a group splits it.
  nn::Sequential split = base.clone();
  split.insert(1, std::make_unique<nn::Flatten>("flat0"));
  EXPECT_EQ(describe_groups(split).rfind("conv1 | flat0 | relu1 | pool1", 0),
            0u);
  // The groups cover every layer exactly once.
  std::size_t next = 0;
  for (const nn::Sequential::Group& g : q.groups()) {
    EXPECT_EQ(g.first, next);
    EXPECT_GT(g.end, g.first);
    next = g.end;
  }
  EXPECT_EQ(next, q.num_layers());
}

TEST(FusedTail, DropoutBreaksAGroup) {
  const nn::Sequential cifar = models::make_cifarnet(1);
  const std::string groups = describe_groups(cifar);
  EXPECT_NE(groups.find("fc1+relu3 | dropout | fc2"), std::string::npos)
      << groups;
  util::Rng rng(2);
  nn::Sequential m("dropout-first");
  m.emplace<nn::Linear>(4, 4, rng, "fc");
  m.emplace<nn::Dropout>(0.5, 7, "dropout");
  m.emplace<nn::ReLU>("relu");
  EXPECT_EQ(describe_groups(m), "fc | dropout | relu");
}

TEST(FusedTail, BackwardWithoutMatchingForwardThrows) {
  // The last two layers (fc2 + quant_fc2) are one group, so a forward
  // touches no slot of quant_fc2 itself; backward must still tell a tape
  // that saw no forward from one that did.
  nn::Sequential q = quantized(models::make_lenet5_small(4), 8);
  ASSERT_GT(q.groups().back().end - q.groups().back().first, 1u);
  nn::ForwardTape fresh(false);
  EXPECT_THROW((void)q.backward(Tensor({2, 10}), fresh), std::invalid_argument);
  // A tape sized by a shorter model's forward is no match either.
  nn::Sequential prefix("prefix");
  for (std::size_t i = 0; i < 4; ++i) prefix.add(q.layer(i).clone());
  nn::ForwardTape short_tape(false);
  (void)prefix.forward(random_batch(Shape{2, 1, 28, 28}, 5), false,
                       short_tape);
  EXPECT_THROW((void)q.backward(Tensor({2, 10}), short_tape),
               std::invalid_argument);
  // After a real forward the same tape works.
  nn::ForwardTape tape(false);
  (void)q.forward(random_batch(Shape{2, 1, 28, 28}, 6), false, tape);
  EXPECT_NO_THROW((void)q.backward(Tensor({2, 10}), tape));
}

// The int8 walk through compress::integer_exec's int64 oracle: every
// Linear/Conv2d lowered and run by it, every other layer (each ReLU and
// QuantActivation included) on its own.
Tensor integer_exec_forward(nn::Sequential& model, const Tensor& x) {
  const auto [wfmt, afmt] = compress::integer_formats(model);
  Tensor cur = x;
  Tensor gate;  // effective()'s gradient gate; unused here
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      const compress::IntegerLinear il = compress::lower_linear(
          lin->weight().effective(gate), lin->bias().value(), wfmt, afmt);
      cur = compress::integer_linear_forward(il, cur);
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const compress::IntegerConv2d ic = compress::lower_conv2d(
          conv->weight().effective(gate), conv->bias().value(), wfmt, afmt);
      const nn::Conv2dSpec& s = conv->spec();
      const tensor::Conv2dGeometry g{.in_channels = s.in_channels,
                                     .in_h = cur.dim(2),
                                     .in_w = cur.dim(3),
                                     .kernel_h = s.kernel,
                                     .kernel_w = s.kernel,
                                     .stride = s.stride,
                                     .padding = s.padding};
      cur = compress::integer_conv2d_forward(ic, cur, g);
    } else {
      nn::TapeSlot slot;
      cur = layer.forward(cur, /*train=*/false, slot);
    }
  }
  return cur;
}

std::string integer_mismatch() {
  for (const char* name : {"lenet5-small", "cifarnet-small"}) {
    const models::InputSpec in = models::input_spec(name);
    const Tensor x = random_batch(Shape{3, in.channels, in.height, in.width},
                                  60 + in.height);
    for (const int bits : {4, 8}) {
      nn::Sequential q = quantized(models::make_model(name, 8), bits);
      if (!same_bits(integer_exec_forward(q, x),
                     compress::integer_forward(q, x))) {
        return std::string(name) + " at " + std::to_string(bits) +
               " bits on " + kernels::isa_name(kernels::active_isa());
      }
    }
  }
  return "";
}

TEST(FusedTail, IntegerForwardWithReluFoldMatchesIntegerExec) {
  expect_match_on_1_and_4_threads(integer_mismatch);
}

}  // namespace
}  // namespace con
