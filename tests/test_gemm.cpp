// The blocked GEMM layer's contract is bit-identity with the scalar
// reference loops, so every comparison here is ASSERT_EQ on floats — any
// reassociation, K-blocking, or FMA regression shows up as a hard failure,
// not a tolerance creep.
#include <gtest/gtest.h>

#include "compress/pruner.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "oracles/conv_lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::tensor::gemm {
namespace {

using con::testing::random_batch;
using con::util::Rng;

Tensor random_matrix(Index rows, Index cols, std::uint64_t seed,
                     double zero_fraction = 0.0) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (float& v : t.flat()) {
    v = rng.uniform_f(-1.0f, 1.0f);
    if (zero_fraction > 0.0 && rng.uniform_f(0.0f, 1.0f) <
                                   static_cast<float>(zero_fraction)) {
      v = 0.0f;
    }
  }
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (Index i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// Shapes straddling every tail case of the 4/2-row A strips, 8-row B
// strips, and the 256-column panel.
const Index kOddDims[] = {1, 7, 8, 9, 63, 64, 65};

TEST(GemmBlocked, MatchesReferenceNnAcrossOddShapes) {
  for (Index m : kOddDims) {
    for (Index k : kOddDims) {
      for (Index n : kOddDims) {
        Tensor a = random_matrix(m, k, 100 + m * 31 + k);
        Tensor b = random_matrix(k, n, 200 + k * 31 + n);
        Tensor ref = reference_nn(a, b);
        // Both raw entry point (which may take the small-size fallback)
        // and the packed-operand entry points must agree bitwise.
        expect_bitwise_equal(ref, matmul_nn(a, b));
        expect_bitwise_equal(ref, matmul_nn(pack_rowmajor(a, kStripA), b));
        expect_bitwise_equal(ref, matmul_nn(a, pack_colmajor(b, kStripB)));
      }
    }
  }
}

TEST(GemmBlocked, MatchesReferenceTnAcrossOddShapes) {
  for (Index m : kOddDims) {
    for (Index k : kOddDims) {
      for (Index n : kOddDims) {
        Tensor a = random_matrix(k, m, 300 + m * 31 + k);  // stores Aᵀ
        Tensor b = random_matrix(k, n, 400 + k * 31 + n);
        Tensor ref = reference_tn(a, b);
        expect_bitwise_equal(ref, gemm::matmul_tn(a, b));
        expect_bitwise_equal(ref, matmul_tn(pack_colmajor(a, kStripA), b));
      }
    }
  }
}

TEST(GemmBlocked, MatchesReferenceNtAcrossOddShapes) {
  for (Index m : kOddDims) {
    for (Index k : kOddDims) {
      for (Index n : kOddDims) {
        Tensor a = random_matrix(m, k, 500 + m * 31 + k);
        Tensor b = random_matrix(n, k, 600 + k * 31 + n);  // stores Bᵀ
        Tensor ref = reference_nt(a, b);
        expect_bitwise_equal(ref, gemm::matmul_nt(a, b));
        expect_bitwise_equal(ref, matmul_nt(a, pack_rowmajor(b, kStripB)));
      }
    }
  }
}

TEST(GemmBlocked, SparsePanelsMatchDense) {
  // 90% zeros plus whole zero rows/columns exercise the skip lists on both
  // operands, including fully-empty strips.
  Tensor a = random_matrix(65, 129, 7, /*zero_fraction=*/0.9);
  Tensor b = random_matrix(129, 300, 8, /*zero_fraction=*/0.9);
  for (Index k = 0; k < 129; ++k) {
    a.at({33, k}) = 0.0f;          // zero row in A
    b.at({k, 17}) = 0.0f;          // zero column in B
    if (k % 3 != 0) b.at({k, 100}) = 0.0f;
  }
  expect_bitwise_equal(reference_nn(a, b), matmul_nn(a, b));
  expect_bitwise_equal(reference_nn(a, b),
                       matmul_nn(pack_rowmajor(a, kStripA), b));
  Tensor bt = transpose(b);
  expect_bitwise_equal(reference_nt(a, bt), gemm::matmul_nt(a, bt));
}

TEST(GemmBlocked, AllZeroOperandsGiveZero) {
  Tensor a({9, 17});
  Tensor b = random_matrix(17, 33, 9);
  Tensor c = matmul_nn(pack_rowmajor(a, kStripA), b);
  for (Index i = 0; i < c.numel(); ++i) ASSERT_EQ(c[i], 0.0f);
}

TEST(GemmBlocked, RejectsMismatchedShapes) {
  Tensor a = random_matrix(4, 5, 10);
  Tensor b = random_matrix(6, 7, 11);
  EXPECT_THROW(matmul_nn(a, b), std::invalid_argument);
  EXPECT_THROW(gemm::matmul_tn(a, b), std::invalid_argument);
  EXPECT_THROW(gemm::matmul_nt(a, b), std::invalid_argument);
}

TEST(GemmPacking, RecordsZeroSkipLists) {
  // Rows 0-3 form strip 0; give it non-zeros only at k = 1 and k = 5.
  Tensor m({4, 8});
  m.at({0, 1}) = 2.0f;
  m.at({3, 5}) = -1.0f;
  PackedMatrix p = pack_rowmajor(m, kStripA);
  ASSERT_EQ(p.num_strips(), 1);
  ASSERT_EQ(p.nnz_ptr.size(), 2u);
  ASSERT_EQ(p.nnz_ptr[1] - p.nnz_ptr[0], 2);
  EXPECT_EQ(p.nnz_k[0], 1);
  EXPECT_EQ(p.nnz_k[1], 5);
}

// ---- packed-weight cache invalidation ---------------------------------------

TEST(PackedWeightsCache, LinearSeesPrunerMaskUpdate) {
  Rng rng(40);
  nn::Sequential m("m");
  auto& fc = m.emplace<nn::Linear>(16, 8, rng, "fc");
  Tensor x = random_batch(tensor::Shape{3, 16}, 41);

  Tensor before = m.forward(x, false);  // populates the packed cache

  compress::DnsPruner pruner(m, compress::DnsConfig{.target_density = 0.3});
  Tensor after = m.forward(x, false);

  // The pruned forward must match a from-scratch computation with the new
  // mask, not the stale dense panels.
  Tensor expected =
      matmul_nt(x, tensor::mul(fc.weight().value(), fc.weight().mask()));
  const float* bd = fc.bias().value().data();
  for (Index i = 0; i < expected.dim(0); ++i) {
    for (Index j = 0; j < expected.dim(1); ++j) {
      expected.at({i, j}) += bd[j];
    }
  }
  expect_bitwise_equal(expected, after);

  // And pruning to 30% density must actually change the output.
  bool changed = false;
  for (Index i = 0; i < before.numel(); ++i) changed |= (before[i] != after[i]);
  EXPECT_TRUE(changed);
}

TEST(PackedWeightsCache, LinearSeesOptimizerStep) {
  Rng rng(42);
  nn::Sequential m("m");
  auto& fc = m.emplace<nn::Linear>(12, 6, rng, "fc");
  Tensor x = random_batch(tensor::Shape{2, 12}, 43);

  m.forward(x, false);  // populate cache
  fc.weight().grad.fill(0.5f);
  fc.bias().grad.fill(0.0f);
  nn::Sgd opt(m.parameters(), nn::SgdConfig{.learning_rate = 0.1f});
  opt.step();  // in-place weight write + version bump

  Tensor after = m.forward(x, false);
  Tensor expected = matmul_nt(x, fc.weight().value());
  const float* bd = fc.bias().value().data();
  for (Index i = 0; i < expected.dim(0); ++i) {
    for (Index j = 0; j < expected.dim(1); ++j) {
      expected.at({i, j}) += bd[j];
    }
  }
  expect_bitwise_equal(expected, after);
}

TEST(PackedWeightsCache, ConvSeesPrunerMaskUpdate) {
  Rng rng(44);
  nn::Sequential m("m");
  auto& conv = m.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = 2, .out_channels = 4, .kernel = 3,
                     .stride = 1, .padding = 1},
      rng, "conv");
  Tensor x = random_batch(tensor::Shape{2, 2, 6, 6}, 45);

  Tensor before = m.forward(x, false);
  compress::DnsPruner pruner(m, compress::DnsConfig{.target_density = 0.25});
  Tensor after = m.forward(x, false);

  // Recompute through a fresh layer clone whose cache is cold: the cached
  // path must agree bitwise with the cold path under the new mask.
  nn::Sequential fresh = m.clone();
  Tensor cold = fresh.forward(x, false);
  expect_bitwise_equal(cold, after);

  bool changed = false;
  for (Index i = 0; i < before.numel(); ++i) changed |= (before[i] != after[i]);
  EXPECT_TRUE(changed);
  // Silence unused warnings on conv reference.
  (void)conv;
}

TEST(PackedWeightsCache, CloneStartsCold) {
  Rng rng(46);
  nn::Sequential m("m");
  m.emplace<nn::Linear>(10, 5, rng, "fc");
  Tensor x = random_batch(tensor::Shape{2, 10}, 47);
  Tensor y = m.forward(x, false);  // warm the original's cache
  nn::Sequential copy = m.clone();
  // The clone's parameters are distinct objects; its forward must build its
  // own panels and still agree bitwise.
  expect_bitwise_equal(y, copy.forward(x, false));
}

}  // namespace
}  // namespace con::tensor::gemm
