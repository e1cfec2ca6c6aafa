// Heap-allocation ceilings for the steady-state compute paths: the float
// Conv2d and Linear forward and backward, the int8 conv and linear forward,
// and the IFGSM and DeepFool iterations. Each case warms up first, so every
// per-worker GEMM scratch buffer and packed-weight cache has reached its
// high-water mark, then counts the calling thread's operator new calls over
// one call (or, for the attacks, the difference between a 7- and a
// 3-iteration attack, which cancels the per-call setup). The ceilings are the counts measured when
// this test was written, per kernel table where the tables differ: a
// change that adds a heap allocation to one of these paths fails here, and
// a change that removes some lowers the ceiling in the same commit.
//
// Its own binary (con_heap_tests), for two reasons: heap_counter.h replaces
// operator new, which must not reach the main suite, and the global pool
// has one thread, so every panel runs on the calling thread. With more
// workers the counts vary from call to call, because which worker runs
// which panel (and so which worker's scratch grows) is not fixed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "attacks/deepfool.h"
#include "attacks/fast_gradient.h"
#include "compress/fixed_point.h"
#include "heap_counter.h"
#include "models/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "tensor/random.h"
#include "test_helpers.h"
#include "util/threadpool.h"

namespace con {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor uniform(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  util::Rng rng(seed);
  tensor::fill_uniform(t, rng, 0.0f, 1.0f);
  return t;
}

// Heap allocations made by one call of `call` once three calls have warmed
// every cache and scratch buffer it touches.
template <typename F>
std::uint64_t allocations_per_call(F&& call) {
  for (int i = 0; i < 3; ++i) call();
  const std::uint64_t before = testing::heap_allocations();
  call();
  return testing::heap_allocations() - before;
}

// Heap allocations that iterations 4 to 7 of `attack(iterations)` add to a
// 3-iteration attack. (Not always a multiple of 4: as the iterate moves,
// a few allocations come and go with the data.)
template <typename F>
std::uint64_t allocations_of_four_iterations(F&& attack) {
  attack(7);  // warm-up
  std::uint64_t before = testing::heap_allocations();
  attack(3);
  const std::uint64_t at_three = testing::heap_allocations() - before;
  before = testing::heap_allocations();
  attack(7);
  return testing::heap_allocations() - before - at_three;
}

// `scalar` on the scalar kernel table, `avx2` on the AVX2 one.
std::uint64_t on_table(std::uint64_t scalar, std::uint64_t avx2) {
  return tensor::kernels::active_isa() == tensor::kernels::Isa::kScalar
             ? scalar
             : avx2;
}

// Runs `check` once per kernel table this host has.
template <typename F>
void on_every_isa(F&& check) {
  for (tensor::kernels::Isa isa :
       testing::simd_isas({tensor::kernels::Isa::kScalar})) {
    SCOPED_TRACE(tensor::kernels::isa_name(isa));
    tensor::kernels::ScopedIsa scoped(isa);
    check();
  }
}

nn::Int8FormatKey key_for(const compress::FixedPointFormat& f) {
  return nn::Int8FormatKey{.weight_total_bits = f.total_bits,
                           .weight_integer_bits = f.integer_bits,
                           .act_total_bits = f.total_bits,
                           .act_integer_bits = f.integer_bits};
}

void quantize_weights(nn::Parameter& w, const compress::FixedPointFormat& f) {
  w.set_transform(std::make_shared<compress::FixedPointWeightTransform>(f));
}

TEST(HeapCeiling, Conv2dForwardAndBackward) {
  util::Rng rng(11);
  const nn::Conv2d conv(
      nn::Conv2dSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                     .padding = 1},
      rng);
  const Tensor x = uniform(Shape{16, 3, 12, 12}, 12);
  const Tensor grad_out = uniform(Shape{16, 8, 12, 12}, 13);
  on_every_isa([&] {
    nn::TapeSlot slot;
    EXPECT_LE(allocations_per_call([&] { conv.forward(x, true, slot); }), 3u);
    EXPECT_LE(allocations_per_call([&] { conv.backward(grad_out, slot); }),
              5u);
  });
}

TEST(HeapCeiling, LinearForwardAndBackward) {
  util::Rng rng(21);
  const nn::Linear fc(64, 10, rng);
  const Tensor x = uniform(Shape{16, 64}, 22);
  const Tensor grad_out = uniform(Shape{16, 10}, 23);
  on_every_isa([&] {
    nn::TapeSlot slot;
    EXPECT_LE(allocations_per_call([&] { fc.forward(x, true, slot); }), 19u);
    EXPECT_LE(allocations_per_call([&] { fc.backward(grad_out, slot); }),
              on_table(17, 29));
  });
}

TEST(HeapCeiling, Int8ConvAndLinearForward) {
  const compress::FixedPointFormat fmt =
      compress::FixedPointFormat::paper_format(8);
  util::Rng rng(31);
  nn::Conv2d conv(nn::Conv2dSpec{.in_channels = 3, .out_channels = 8,
                                 .kernel = 3, .padding = 1},
                  rng);
  nn::Linear fc(64, 10, rng);
  quantize_weights(conv.weight(), fmt);
  quantize_weights(fc.weight(), fmt);
  const Tensor image = uniform(Shape{16, 3, 12, 12}, 32);
  const Tensor rows = uniform(Shape{16, 64}, 33);
  const nn::Int8FormatKey key = key_for(fmt);
  const auto conv_forward = [&] { conv.forward_int8(image, key, true); };
  const auto fc_forward = [&] { fc.forward_int8(rows, key); };
  on_every_isa([&] {
    EXPECT_LE(allocations_per_call(conv_forward), 4u);
    EXPECT_LE(allocations_per_call(fc_forward), 17u);
  });
}

// The attacks run on an untrained LeNet5 against its own predictions, so
// every row starts unfooled.
class HeapCeilingAttack : public ::testing::Test {
 protected:
  HeapCeilingAttack()
      : model_(models::make_lenet5_small(41)),
        images_(uniform(Shape{8, 1, 28, 28}, 42)),
        labels_(nn::predict(model_, images_)),
        adv_(images_.shape()) {}

  nn::Sequential model_;
  Tensor images_;
  std::vector<int> labels_;
  Tensor adv_;
};

TEST_F(HeapCeilingAttack, IfgsmIterations) {
  on_every_isa([&] {
    const std::uint64_t allocations =
        allocations_of_four_iterations([&](int iterations) {
          attacks::fast_gradient_range(
              model_, images_, 0, images_.dim(0), labels_,
              attacks::AttackParams{.epsilon = 0.02f, .iterations = iterations},
              attacks::FastGradientRule::kSign, adv_);
        });
    EXPECT_LE(allocations, 362u);
  });
}

TEST_F(HeapCeilingAttack, DeepFoolIterations) {
  on_every_isa([&] {
    // An overshoot of -1 pins the iterate at the clean image (x0 + 0·r),
    // so no row is ever fooled and every iteration does the same work: one
    // forward and one backward per class over all eight rows.
    const std::uint64_t allocations =
        allocations_of_four_iterations([&](int iterations) {
          attacks::deepfool_range(
              model_, images_, 0, images_.dim(0), labels_,
              attacks::AttackParams{.epsilon = -1.0f, .iterations = iterations},
              10, adv_, nullptr, nullptr);
        });
    EXPECT_LE(allocations, 1592u);
  });
}

}  // namespace
}  // namespace con

int main(int argc, char** argv) {
  con::util::ThreadPool::set_global_threads(1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
