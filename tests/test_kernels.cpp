// Oracle suite for the runtime-dispatched micro-kernel tables
// (tensor/kernels/dispatch.h).
//
// The scalar table is the bit-exact oracle; this file checks every other
// table against it under the precision contract of DESIGN.md §5:
//  - float-accumulating GEMM (nn_4x8): |simd − scalar| ≤ 2·γ_K·Σ|a·b|,
//    γ_K = K·2⁻²⁴, on random, pruned and adversarially-scaled inputs at
//    every tile-remainder shape;
//  - everything else (NT double kernel, sparse row-axpy, elementwise,
//    fixed-point fake-quant, panel pack_row) bit-identical on every ISA;
//  - the dispatch override surface: parse errors throw, unsupported
//    requests fall back to scalar gracefully, ScopedIsa restores.
//
// A global test environment pins the scalar table before any test runs, so
// the rest of con_tests stays deterministic even under CON_KERNEL=avx2 in
// the environment; SIMD paths are only ever exercised through an explicit
// ScopedIsa.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compress/fixed_point.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "oracles/conv_lowering.h"
#include "oracles/integer_exec.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/kernel_scalar.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace {

using con::tensor::Index;
using con::tensor::Tensor;
namespace gemm = con::tensor::gemm;
namespace kernels = con::tensor::kernels;
using con::testing::simd_isas;

class ScalarBaselineEnv : public ::testing::Environment {
 public:
  void SetUp() override { kernels::set_isa(kernels::Isa::kScalar); }
};

const auto* const g_scalar_env =
    ::testing::AddGlobalTestEnvironment(new ScalarBaselineEnv);

// True bit-level equality (ASSERT_EQ on floats treats -0 == +0 and fails
// on NaN == NaN; the contract here is about the exact bits).
void expect_bits_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, a.data() + i, 4);
    std::memcpy(&bb, b.data() + i, 4);
    ASSERT_EQ(ba, bb) << what << " element " << i << ": " << a[i] << " vs "
                      << b[i];
  }
}

enum class Fill { kRandom, kPruned, kScaled };

Tensor make_input(Index rows, Index cols, std::uint64_t seed, Fill fill) {
  con::util::Rng rng(seed);
  Tensor t({rows, cols});
  con::tensor::fill_normal(t, rng, 0.0f, 1.0f);
  if (fill == Fill::kPruned) {
    for (float& v : t.flat()) {
      if (rng.uniform() < 0.6) v = 0.0f;
    }
  } else if (fill == Fill::kScaled) {
    // Adversarial dynamic range: magnitudes spread over ~2^40 so partial
    // sums cancel catastrophically if a kernel reorders beyond contract.
    for (float& v : t.flat()) {
      const int e = static_cast<int>(rng.uniform() * 40.0) - 20;
      v = std::ldexp(v, e);
    }
  }
  return t;
}

// |simd − scalar| ≤ 2·γ_K·Σ_k|a_ik·b_kj| with γ_K = K·2⁻²⁴ (dispatch.h):
// both results are individually within γ_K·Σ|ab| of the exact product, the
// scalar one by the standard sequential-summation bound, the SIMD one
// because FMA with two interleaved chains only removes roundings.
void expect_within_gemm_bound(const Tensor& a, const Tensor& b,
                              const Tensor& scalar_c, const Tensor& simd_c) {
  ASSERT_EQ(scalar_c.shape(), simd_c.shape());
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const double gamma = static_cast<double>(k) * std::ldexp(1.0, -24);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      double sum_abs = 0.0;
      for (Index t = 0; t < k; ++t) {
        sum_abs += std::fabs(static_cast<double>(a[i * k + t]) *
                             static_cast<double>(b[t * n + j]));
      }
      const double diff = std::fabs(static_cast<double>(scalar_c[i * n + j]) -
                                    static_cast<double>(simd_c[i * n + j]));
      ASSERT_LE(diff, 2.0 * gamma * sum_abs + 1e-30)
          << "(" << i << "," << j << ") scalar=" << scalar_c[i * n + j]
          << " simd=" << simd_c[i * n + j];
    }
  }
}

// ---- dispatch surface -------------------------------------------------------

TEST(KernelDispatch, ParseIsaAcceptsKnownNamesAndThrowsOnTypos) {
  EXPECT_EQ(kernels::parse_isa("scalar"), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::parse_isa("avx2"), kernels::Isa::kAvx2);
  // No NEON table is built, so --kernel neon is a typo like any other.
  EXPECT_THROW(kernels::parse_isa("neon"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_isa("avx512"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_isa(""), std::invalid_argument);
  EXPECT_THROW(kernels::parse_isa("AVX2"), std::invalid_argument);
}

TEST(KernelDispatch, EnvResolutionFallsBackToScalarGracefully) {
  // Unset and empty mean scalar (the default contract: SIMD is opt-in).
  EXPECT_EQ(kernels::resolve_env_request(nullptr), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::resolve_env_request(""), kernels::Isa::kScalar);
  // A typo in the environment must not crash a generic binary.
  EXPECT_EQ(kernels::resolve_env_request("bogus"), kernels::Isa::kScalar);
  // AVX2 resolves to itself where the host runs it, to scalar elsewhere.
  EXPECT_EQ(kernels::resolve_env_request("avx2"),
            kernels::isa_supported(kernels::Isa::kAvx2)
                ? kernels::Isa::kAvx2
                : kernels::Isa::kScalar);
}

// The CI `generic` job runs the suite under CON_KERNEL=neon, an ISA this
// build does not have: the request runs scalar and counts one fallback.
TEST(KernelDispatch, EnvRequestForAnIsaThisBuildLacksCountsOneFallback) {
  const con::obs::Counter& fallback =
      con::obs::counter("gemm.dispatch.fallback");
  const std::uint64_t before = fallback.value();
  EXPECT_EQ(kernels::resolve_env_request("neon"), kernels::Isa::kScalar);
  EXPECT_EQ(fallback.value(), before + 1);
}

TEST(KernelDispatch, SetIsaReportsTheActivatedTable) {
  const kernels::Isa isa = kernels::Isa::kAvx2;
  const kernels::Isa want =
      kernels::isa_supported(isa) ? isa : kernels::Isa::kScalar;
  EXPECT_EQ(kernels::set_isa(isa), want);
  EXPECT_EQ(kernels::active_isa(), want);
  kernels::set_isa(kernels::Isa::kScalar);
}

TEST(KernelDispatch, ScopedIsaRestoresThePreviousTable) {
  ASSERT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
  for (kernels::Isa isa : simd_isas()) {
    {
      kernels::ScopedIsa scoped(isa);
      EXPECT_EQ(kernels::active_isa(), isa);
    }
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
  }
}

TEST(KernelDispatch, EveryActivatedTableIsFullyPopulated) {
  for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
    kernels::ScopedIsa scoped(isa);
    const kernels::KernelTable& kt = kernels::active();
    EXPECT_EQ(kt.isa, isa);
    EXPECT_GT(kt.small_gemm_flops, 0);
    EXPECT_NE(kt.nn_4x8, nullptr);
    EXPECT_NE(kt.nt_2x8, nullptr);
    EXPECT_NE(kt.axpy, nullptr);
    EXPECT_NE(kt.axpy_out, nullptr);
    EXPECT_NE(kt.add, nullptr);
    EXPECT_NE(kt.sub, nullptr);
    EXPECT_NE(kt.mul, nullptr);
    EXPECT_NE(kt.scale, nullptr);
    EXPECT_NE(kt.clamp, nullptr);
    EXPECT_NE(kt.relu, nullptr);
    EXPECT_NE(kt.sign, nullptr);
    EXPECT_NE(kt.relu_bwd, nullptr);
    EXPECT_NE(kt.relu_mask, nullptr);
    EXPECT_NE(kt.pack_row, nullptr);
    EXPECT_NE(kt.lower_strip, nullptr);
    EXPECT_NE(kt.lower_strip_int8, nullptr);
    EXPECT_NE(kt.fake_quant, nullptr);
    EXPECT_NE(kt.maxpool2x2, nullptr);
    EXPECT_NE(kt.int8_4x16, nullptr);
    EXPECT_NE(kt.quant_i8, nullptr);
    EXPECT_NE(kt.requant_col_bias, nullptr);
    EXPECT_NE(kt.requant_row_bias, nullptr);
  }
}

// ---- float GEMM: within the analytic bound ---------------------------------

// Shapes covering every mv (1..4) and nv (1..8) tile remainder, the panel
// boundary, and k parities (the even/odd interleave has a lone-k tail when
// K is odd).
struct GemmCase {
  Index m, k, n;
};
const GemmCase kGemmCases[] = {
    {1, 1, 1},  {2, 3, 5},   {3, 7, 8},   {4, 8, 9},   {5, 9, 16},
    {7, 16, 7}, {8, 17, 24}, {9, 32, 31}, {16, 33, 40}, {33, 64, 65},
};

TEST(KernelOracle, FloatGemmWithinAnalyticBound) {
  for (kernels::Isa isa : simd_isas()) {
    for (Fill fill : {Fill::kRandom, Fill::kPruned, Fill::kScaled}) {
      for (const GemmCase& c : kGemmCases) {
        const Tensor a = make_input(c.m, c.k, 1000 + c.m * 7 + c.k, fill);
        const Tensor b = make_input(c.k, c.n, 2000 + c.k * 7 + c.n, fill);
        // The packed-A entry never takes the small-size fallback, so the
        // table kernel runs at every shape.
        const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
        const Tensor want = gemm::matmul_nn(pa, b);
        kernels::ScopedIsa scoped(isa);
        const Tensor got = gemm::matmul_nn(pa, b);
        expect_within_gemm_bound(a, b, want, got);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelOracle, FloatGemmZeroSkipStripsAgree) {
  // Whole strip columns of zeros exercise the klist path (and its odd-length
  // tail) in every table; elided terms all have a zero factor, so the
  // bound argument is unchanged.
  for (kernels::Isa isa : simd_isas()) {
    Tensor a = make_input(9, 40, 77, Fill::kRandom);
    for (Index i = 0; i < 9; ++i) {
      for (Index k = 0; k < 40; ++k) {
        if ((k % 3) != 1) a[i * 40 + k] = 0.0f;  // kill 2/3 of the k range
      }
    }
    const Tensor b = make_input(40, 23, 78, Fill::kRandom);
    const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
    const Tensor want = gemm::matmul_nn(pa, b);
    kernels::ScopedIsa scoped(isa);
    const Tensor got = gemm::matmul_nn(pa, b);
    expect_within_gemm_bound(a, b, want, got);
  }
}

// ---- NT double kernel: bit-identical ---------------------------------------

TEST(KernelOracle, NtGemmBitIdentical) {
  // Double accumulators make float·float products exact, so fused and
  // unfused accumulation round identically: every ISA must match scalar
  // bit for bit (the Linear-forward contract).
  for (kernels::Isa isa : simd_isas()) {
    for (const GemmCase& c : kGemmCases) {
      const Tensor x = make_input(c.m, c.k, 3000 + c.m, Fill::kScaled);
      const Tensor w = make_input(c.n, c.k, 4000 + c.n, Fill::kScaled);
      const auto pw = gemm::pack_rowmajor(w, gemm::kStripB);
      const Tensor want = gemm::matmul_nt(x, pw);
      kernels::ScopedIsa scoped(isa);
      const Tensor got = gemm::matmul_nt(x, pw);
      expect_bits_equal(want, got, "matmul_nt");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelOracle, NtTileCarriesAcrossDepthChunks) {
  // The weight gradient streams its depth through nt_2x8 in chunks, the
  // double tile carried in the caller's storage: two calls over [0, k1)
  // and [k1, K) must leave exactly the bits of one call over [0, K), on
  // every table, dense and through skip lists (rebased to each chunk).
  const std::vector<kernels::Isa> isas = simd_isas({kernels::Isa::kScalar});
  constexpr Index kDepth = 37;
  con::util::Rng rng(91);
  std::vector<float> ap(kDepth * 2), bp(kDepth * 8);
  for (float& v : ap) v = rng.uniform() < 0.5 ? 0.0f : rng.uniform_f(-3, 3);
  for (float& v : bp) {
    const int e = static_cast<int>(rng.uniform() * 30) - 15;
    v = std::ldexp(rng.uniform_f(-1, 1), e);
  }
  std::vector<std::int32_t> klist;
  for (Index k = 0; k < kDepth; ++k) {
    if (ap[k * 2] != 0.0f || ap[k * 2 + 1] != 0.0f) {
      klist.push_back(static_cast<std::int32_t>(k));
    }
  }
  auto bits = [](const double* t) {
    std::vector<std::uint64_t> out(16);
    std::memcpy(out.data(), t, sizeof(double) * 16);
    return out;
  };
  std::vector<std::uint64_t> scalar_whole;
  for (kernels::Isa isa : isas) {
    kernels::ScopedIsa scoped(isa);
    const kernels::KernelTable& kt = kernels::active();
    for (Index k1 : {Index(1), Index(16), Index(kDepth - 1)}) {
      // Dense loop.
      double whole[16] = {}, split[16] = {};
      kt.nt_2x8(kDepth, ap.data(), bp.data(), nullptr, 0, whole);
      kt.nt_2x8(k1, ap.data(), bp.data(), nullptr, 0, split);
      kt.nt_2x8(kDepth - k1, ap.data() + k1 * 2, bp.data() + k1 * 8, nullptr,
                0, split);
      EXPECT_EQ(bits(whole), bits(split))
          << kernels::isa_name(isa) << " dense k1=" << k1;
      if (scalar_whole.empty()) scalar_whole = bits(whole);
      EXPECT_EQ(bits(whole), scalar_whole) << kernels::isa_name(isa);
      // Skip lists: the whole list, then its two halves rebased.
      double lwhole[16] = {}, lsplit[16] = {};
      kt.nt_2x8(kDepth, ap.data(), bp.data(), klist.data(),
                static_cast<Index>(klist.size()), lwhole);
      std::vector<std::int32_t> lo, hi;
      for (std::int32_t k : klist) {
        if (k < k1) {
          lo.push_back(k);
        } else {
          hi.push_back(static_cast<std::int32_t>(k - k1));
        }
      }
      kt.nt_2x8(k1, ap.data(), bp.data(), lo.data(),
                static_cast<Index>(lo.size()), lsplit);
      kt.nt_2x8(kDepth - k1, ap.data() + k1 * 2, bp.data() + k1 * 8,
                hi.data(), static_cast<Index>(hi.size()), lsplit);
      EXPECT_EQ(bits(lwhole), bits(lsplit))
          << kernels::isa_name(isa) << " klist k1=" << k1;
      EXPECT_EQ(bits(lwhole), scalar_whole) << kernels::isa_name(isa);
    }
  }
}

// ---- sparse row-axpy: bit-identical ----------------------------------------

TEST(KernelOracle, SparseAxpyPathBitIdentical) {
  // 90% pruned A against raw k-major B drops below the density threshold
  // and takes the row-axpy path; the table's axpy entry never fuses, so
  // the result must be bit-identical on every ISA.
  for (kernels::Isa isa : simd_isas()) {
    con::util::Rng rng(55);
    Tensor a = make_input(64, 48, 56, Fill::kRandom);
    for (float& v : a.flat()) {
      if (rng.uniform() < 0.9) v = 0.0f;
    }
    const Tensor b = make_input(48, 100, 57, Fill::kScaled);
    const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
    ASSERT_LE(pa.nnz * 100, static_cast<std::int64_t>(64) * 48 * 25)
        << "input not sparse enough to exercise the axpy path";
    const Tensor want = gemm::matmul_nn(pa, b);
    kernels::ScopedIsa scoped(isa);
    const Tensor got = gemm::matmul_nn(pa, b);
    expect_bits_equal(want, got, "sparse axpy");
  }
}

// ---- elementwise: bit-identical, including ±0 ------------------------------

Tensor elementwise_input(Index n, std::uint64_t seed) {
  con::util::Rng rng(seed);
  Tensor t({n});
  con::tensor::fill_normal(t, rng, 0.0f, 2.0f);
  // Sprinkle the special values the contract calls out: exact zeros of
  // both signs (relu(-0) must be +0 everywhere) and denormal-range floats.
  for (Index i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < 0.1) t[i] = 0.0f;
    else if (u < 0.2) t[i] = -0.0f;
    else if (u < 0.25) t[i] = std::ldexp(t[i], -120);
  }
  return t;
}

const Index kElemSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1003};

TEST(KernelOracle, ElementwiseBitIdentical) {
  for (kernels::Isa isa : simd_isas()) {
    for (Index n : kElemSizes) {
      const Tensor a = elementwise_input(n, 600 + n);
      const Tensor b = elementwise_input(n, 700 + n);
      auto run = [&](auto&& fn) {
        Tensor scalar_out = fn();
        kernels::ScopedIsa scoped(isa);
        Tensor simd_out = fn();
        return std::pair<Tensor, Tensor>(std::move(scalar_out),
                                         std::move(simd_out));
      };
      {
        auto [want, got] = run([&] { return con::tensor::add(a, b); });
        expect_bits_equal(want, got, "add");
      }
      {
        auto [want, got] = run([&] { return con::tensor::sub(a, b); });
        expect_bits_equal(want, got, "sub");
      }
      {
        auto [want, got] = run([&] { return con::tensor::mul(a, b); });
        expect_bits_equal(want, got, "mul");
      }
      {
        auto [want, got] = run([&] { return con::tensor::scale(a, 1.7f); });
        expect_bits_equal(want, got, "scale");
      }
      {
        auto [want, got] =
            run([&] { return con::tensor::add_scaled(a, b, -0.3f); });
        expect_bits_equal(want, got, "add_scaled");
      }
      {
        auto [want, got] = run([&] {
          Tensor out({n});
          con::tensor::add_scaled_into(out, a, b, 2.5f);
          return out;
        });
        expect_bits_equal(want, got, "add_scaled_into");
      }
      {
        auto [want, got] =
            run([&] { return con::tensor::clamp(a, -0.5f, 0.5f); });
        expect_bits_equal(want, got, "clamp");
      }
      {
        auto [want, got] = run([&] { return con::tensor::sign(a); });
        expect_bits_equal(want, got, "sign");
      }
      {
        auto [want, got] = run([&] { return con::tensor::relu(a); });
        expect_bits_equal(want, got, "relu");
        // relu(-0) == +0: no negative zeros may survive.
        for (Index i = 0; i < n; ++i) {
          EXPECT_FALSE(std::signbit(got[i])) << "relu produced -0 at " << i;
        }
      }
      {
        auto [want, got] = run([&] {
          Tensor g = b;
          con::tensor::relu_backward_inplace(g, a);
          return g;
        });
        expect_bits_equal(want, got, "relu_backward");
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelOracle, ReluToleratesAliasedInPlaceUse) {
  for (kernels::Isa isa : simd_isas()) {
    const Tensor a = elementwise_input(257, 42);
    Tensor want = a;
    con::tensor::relu_inplace(want);
    kernels::ScopedIsa scoped(isa);
    Tensor got = a;
    con::tensor::relu_inplace(got);
    expect_bits_equal(want, got, "relu_inplace");
  }
}

// ReLU's gradient passes exactly where its forward passed the value
// (x > 0): a NaN input is mapped to 0 forward, so its gradient is blocked,
// in the 8-wide SIMD body and in the scalar remainder alike (9 lanes).
TEST(KernelOracle, ReluGradientOfNaNIsBlockedOnEveryTable) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
    kernels::ScopedIsa scoped(isa);
    const kernels::KernelTable& kt = kernels::active();
    const std::vector<float> in(9, nan);
    std::vector<float> grad(9, 1.0f);
    kt.relu_bwd(grad.data(), in.data(), 9);
    EXPECT_EQ(grad, std::vector<float>(9, 0.0f)) << kernels::isa_name(isa);
    std::vector<float> x = in, mask(9, 5.0f);
    const std::vector<float> gate(9, 1.0f);
    kt.relu_mask(x.data(), mask.data(), gate.data(), 9);
    EXPECT_EQ(x, std::vector<float>(9, 0.0f)) << kernels::isa_name(isa);
    EXPECT_EQ(mask, std::vector<float>(9, -1.0f)) << kernels::isa_name(isa);
  }
}

TEST(KernelOracle, BiasAddAndColumnSumsBitIdentical) {
  for (kernels::Isa isa : simd_isas()) {
    for (Index cols : {1, 7, 8, 9, 33}) {
      const Tensor m = make_input(5, cols, 800 + cols, Fill::kScaled);
      con::util::Rng rng(900 + static_cast<std::uint64_t>(cols));
      Tensor bias({cols});
      con::tensor::fill_normal(bias, rng, 0.0f, 1.0f);
      Tensor want_m = m, got_m = m;
      Tensor want_acc({cols}), got_acc({cols});
      want_acc.fill(0.125f);
      got_acc.fill(0.125f);
      con::tensor::bias_add_inplace(want_m, bias);
      con::tensor::column_sums_add_inplace(want_acc, m);
      kernels::ScopedIsa scoped(isa);
      con::tensor::bias_add_inplace(got_m, bias);
      con::tensor::column_sums_add_inplace(got_acc, m);
      expect_bits_equal(want_m, got_m, "bias_add");
      expect_bits_equal(want_acc, got_acc, "column_sums_add");
    }
  }
}

// ---- pack_row: identical panels and flags ----------------------------------

TEST(KernelOracle, PackRowMatchesScalarBytesAndFlags) {
  for (kernels::Isa isa : simd_isas()) {
    for (Index jn : {1, 7, 8, 9, 16, 17, 63, 64, 65}) {
      const Index depth = 5, k = 3;
      const Index ns = (jn + 7) / 8;
      Tensor src = elementwise_input(jn, 1100 + jn);
      std::vector<float> want_panel(static_cast<std::size_t>(ns * depth * 8),
                                    -7.0f);
      std::vector<float> got_panel = want_panel;
      std::vector<char> want_flags(static_cast<std::size_t>(ns * depth), 9);
      std::vector<char> got_flags = want_flags;
      kernels::scalar::pack_row8(want_panel.data(), src.data(), jn, depth, k,
                                 want_flags.data());
      kernels::ScopedIsa scoped(isa);
      kernels::active().pack_row(got_panel.data(), src.data(), jn, depth, k,
                                 got_flags.data());
      ASSERT_EQ(std::memcmp(want_panel.data(), got_panel.data(),
                            want_panel.size() * sizeof(float)),
                0)
          << "panel bytes differ at jn=" << jn;
      ASSERT_TRUE(std::equal(want_flags.begin(), want_flags.end(),
                             got_flags.begin(),
                             [](char a, char b) { return (a != 0) == (b != 0); }))
          << "flags differ at jn=" << jn;
    }
  }
}

// ---- fixed-point fake-quant: bit-identical ---------------------------------

// Every value the fake-quant contract (dispatch.h) calls out for `fmt`:
// exact ties, signed zeros, small negatives that round to -0, the
// saturation bounds and one ulp either side, infinities, NaN, subnormals,
// and grid multiples beyond 2²³ (where rounding is the identity).
std::vector<float> fake_quant_specials(
    const con::compress::FixedPointFormat& fmt) {
  const float s = fmt.step(), lo = fmt.lo(), hi = fmt.hi();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {0.0f, -0.0f, -0.25f * s, -0.49f * s, 0.49f * s,
                          inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::ldexp(1.0f, -130), -std::ldexp(3.0f, -140),
                          std::ldexp(1.5f, 23) * s, -std::ldexp(1.0f, 24) * s,
                          std::ldexp(1.0f, 30) * s, -std::ldexp(1.0f, 40) * s};
  for (int k : {-9, -4, -3, -2, -1, 0, 1, 2, 3, 4, 9}) {
    v.push_back((static_cast<float>(k) + 0.5f) * s);  // exact tie
  }
  for (float b : {lo, hi}) {
    v.push_back(b);
    v.push_back(std::nextafter(b, -inf));
    v.push_back(std::nextafter(b, inf));
    v.push_back(b + 0.5f * s);
    v.push_back(b - 0.5f * s);
  }
  con::util::Rng rng(static_cast<std::uint64_t>(fmt.total_bits));
  for (int i = 0; i < 16; ++i) {
    v.push_back(rng.uniform_f(2.0f * lo, 2.0f * hi));
  }
  return v;
}

// The 2×2 / stride-2 max-pool contract written out directly: strict `>`
// from -inf over (0,0), (0,1), (1,0), (1,1), the window's first element when
// nothing exceeds -inf.
void maxpool2x2_reference(std::vector<float>& out, std::vector<Index>& idx,
                          const std::vector<float>& in, Index planes, Index h,
                          Index w) {
  const Index oh = h / 2, ow = w / 2;
  out.assign(static_cast<std::size_t>(planes * oh * ow), 0.0f);
  idx.assign(out.size(), -1);
  std::size_t o = 0;
  for (Index pl = 0; pl < planes; ++pl) {
    for (Index py = 0; py < oh; ++py) {
      for (Index px = 0; px < ow; ++px, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        Index best_idx = (pl * h + 2 * py) * w + 2 * px;
        for (Index dy = 0; dy < 2; ++dy) {
          for (Index dx = 0; dx < 2; ++dx) {
            const Index i = (pl * h + 2 * py + dy) * w + 2 * px + dx;
            if (in[static_cast<std::size_t>(i)] > best) {
              best = in[static_cast<std::size_t>(i)];
              best_idx = i;
            }
          }
        }
        out[o] = best;
        idx[o] = best_idx;
      }
    }
  }
}

TEST(KernelOracle, MaxPool2x2BitIdentical) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Ties (repeated values), ±0, NaN, ±inf and ordinary values.
  const float specials[] = {1.0f, 1.0f, -1.0f, 0.0f, -0.0f, nan, -inf,
                            inf,  2.5f, 2.5f,  -3.0f, 7.0f};
  const Index nspecials = static_cast<Index>(std::size(specials));
  struct Shape2 {
    Index h, w;
  };
  // Odd planes drop their last row/column; widths below, at and above the
  // 8-window vector step leave every tail length.
  const Shape2 shapes[] = {{2, 2},  {3, 5},   {4, 4},  {5, 17},
                           {7, 33}, {16, 16}, {9, 18}, {2, 34}};
  con::util::Rng rng(4242);
  for (const Shape2& sh : shapes) {
    for (Index planes : {Index(1), Index(3)}) {
      for (int fill = 0; fill < 4; ++fill) {
        std::vector<float> in(static_cast<std::size_t>(planes * sh.h * sh.w));
        for (float& v : in) {
          // fill 3: nothing but -inf and NaN (no element exceeds -inf).
          v = fill == 3 ? (rng.uniform() < 0.5 ? -inf : nan)
                        : specials[rng.below(static_cast<std::uint64_t>(
                              fill == 0 ? 4 : nspecials))];
        }
        std::vector<float> want_out;
        std::vector<Index> want_idx;
        maxpool2x2_reference(want_out, want_idx, in, planes, sh.h, sh.w);
        for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
          kernels::ScopedIsa scoped(isa);
          std::vector<float> out(want_out.size(), -7.0f);
          std::vector<Index> idx(want_idx.size(), -7);
          kernels::active().maxpool2x2(out.data(), idx.data(), in.data(),
                                       planes, sh.h, sh.w);
          ASSERT_EQ(0, std::memcmp(want_out.data(), out.data(),
                                   out.size() * sizeof(float)))
              << kernels::isa_name(isa) << " output h=" << sh.h
              << " w=" << sh.w << " planes=" << planes << " fill=" << fill;
          ASSERT_EQ(want_idx, idx)
              << kernels::isa_name(isa) << " indices h=" << sh.h
              << " w=" << sh.w << " planes=" << planes << " fill=" << fill;
          // Without an index array (inference) the outputs are the same.
          std::vector<float> out_only(want_out.size(), -7.0f);
          kernels::active().maxpool2x2(out_only.data(), nullptr, in.data(),
                                       planes, sh.h, sh.w);
          ASSERT_EQ(0, std::memcmp(want_out.data(), out_only.data(),
                                   out_only.size() * sizeof(float)))
              << kernels::isa_name(isa) << " output without indices h="
              << sh.h << " w=" << sh.w;
        }
      }
    }
  }
}

TEST(KernelOracle, FakeQuantBitIdentical) {
  using con::compress::FixedPointFormat;
  // The 32-bit paper format's hi = 8 - 2⁻²⁸ is not a float: it rounds to
  // exactly 8, so a value rounding onto 8 is in range, not saturated.
  EXPECT_EQ(FixedPointFormat::paper_format(32).hi(), 8.0f);
  auto run = [](const Tensor& x, const FixedPointFormat& f, bool with_gate) {
    Tensor out(x.shape(), -7.0f), gate(x.shape(), -7.0f);
    con::tensor::fake_quant(out, with_gate ? &gate : nullptr, x, f.step(),
                            f.lo(), f.hi());
    return std::pair<Tensor, Tensor>(std::move(out), std::move(gate));
  };
  auto same_bytes = [](const Tensor& a, const Tensor& b) {
    // An empty tensor's data() is null, which memcmp may not receive.
    const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
    return bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0;
  };
  for (int bits : {4, 8, 16, 32}) {
    const FixedPointFormat fmt = FixedPointFormat::paper_format(bits);
    const std::vector<float> pool = fake_quant_specials(fmt);
    const Index p = static_cast<Index>(pool.size());
    for (Index n : {0, 1, 7, 8, 9, 16, 17, 257}) {
      // Rotations slide every special through every vector lane and into
      // the scalar tail; 257 already holds each special several times.
      const Index rotations = n < p ? p : 1;
      for (Index rot = 0; rot < rotations; ++rot) {
        Tensor x({n});
        for (Index i = 0; i < n; ++i) x[i] = pool[(i + rot) % p];
        const auto [want, want_gate] = run(x, fmt, true);
        for (Index i = 0; i < n; ++i) {
          const float ref = con::compress::fixed_point_quantize(x[i], fmt);
          ASSERT_EQ(std::memcmp(&ref, want.data() + i, sizeof(float)), 0)
              << "scalar kernel vs fixed_point_quantize at x=" << x[i];
        }
        for (kernels::Isa isa : simd_isas()) {
          kernels::ScopedIsa scoped(isa);
          const auto [got, got_gate] = run(x, fmt, true);
          const auto [got_nogate, untouched] = run(x, fmt, false);
          ASSERT_TRUE(same_bytes(want, got))
              << kernels::isa_name(isa) << " output, bits=" << bits
              << " n=" << n << " rot=" << rot;
          ASSERT_TRUE(same_bytes(want_gate, got_gate))
              << kernels::isa_name(isa) << " gate, bits=" << bits << " n=" << n
              << " rot=" << rot;
          ASSERT_TRUE(same_bytes(want, got_nogate))
              << kernels::isa_name(isa) << " null-gate output, bits=" << bits
              << " n=" << n << " rot=" << rot;
          ASSERT_TRUE(same_bytes(untouched, Tensor(x.shape(), -7.0f)))
              << "null gate written";
        }
      }
    }
  }
}

TEST(KernelOracle, FakeQuantSemantics) {
  // 4-bit paper format: step 2⁻³, range [-1, 0.875].
  const float s = 0.125f, lo = -1.0f, hi = 0.875f;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({8}, std::vector<float>{0.0625f, 0.1875f, -0.03f, nan, inf,
                                         -inf, 0.9f, -0.0f});
  Tensor out({8}), gate({8});
  con::tensor::fake_quant(out, &gate, x, s, lo, hi);
  EXPECT_EQ(out[0], 0.0f);    // tie 0.5 steps → even (0)
  EXPECT_EQ(out[1], 0.25f);   // tie 1.5 steps → even (2)
  EXPECT_TRUE(std::signbit(out[2]) && out[2] == 0.0f);  // -0.24 steps → -0
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(gate[3], 1.0f);   // NaN is not "saturated"
  EXPECT_EQ(out[4], hi);
  EXPECT_EQ(gate[4], 0.0f);
  EXPECT_EQ(out[5], lo);
  EXPECT_EQ(gate[5], 0.0f);
  EXPECT_EQ(out[6], hi);      // 7.2 steps → 7 steps = hi: on the grid, not
  EXPECT_EQ(gate[6], 1.0f);   // saturated
  EXPECT_TRUE(std::signbit(out[7]));
  // The SIMD exactness argument needs a power-of-two step.
  EXPECT_THROW(con::tensor::fake_quant(out, nullptr, x, 0.1f, lo, hi),
               std::invalid_argument);
  EXPECT_THROW(con::tensor::fake_quant(out, nullptr, x, 0.0f, lo, hi),
               std::invalid_argument);
  EXPECT_THROW(con::tensor::fake_quant(out, nullptr, x,
                                       std::numeric_limits<float>::denorm_min(),
                                       lo, hi),
               std::invalid_argument);
  Tensor short_out({7});
  EXPECT_THROW(con::tensor::fake_quant(short_out, nullptr, x, s, lo, hi),
               std::invalid_argument);
}

// ---- int8 integer path: bit-identical, no tolerance ------------------------
// The int8 entries are integer arithmetic end to end (dispatch.h), so the
// contract is stricter than the float GEMM's analytic bound: every ISA must
// reproduce the scalar oracle exactly, at every tile remainder, with and
// without pair skip lists.

std::vector<std::int8_t> random_int8_codes(Index n, std::uint64_t seed,
                                           double zero_prob = 0.0) {
  con::util::Rng rng(seed);
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  for (auto& c : out) {
    if (zero_prob > 0.0 && rng.uniform() < zero_prob) {
      c = 0;
    } else {
      c = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0) -
                                   127);
    }
  }
  return out;
}

TEST(Int8KernelOracle, MicroKernelBitIdenticalAtEveryTileCorner) {
  for (kernels::Isa isa : simd_isas()) {
    for (Index kpairs : {Index(1), Index(2), Index(3), Index(7), Index(8)}) {
      // One strip pair of panels in the dispatch.h layout: ap is 4 rows of
      // int16-widened codes, bp 16 columns of int8 codes, pair-interleaved.
      std::vector<std::int16_t> ap(static_cast<std::size_t>(kpairs * 8));
      {
        const auto codes = random_int8_codes(kpairs * 8, 9000 + kpairs);
        for (std::size_t i = 0; i < codes.size(); ++i) ap[i] = codes[i];
      }
      const auto bp = random_int8_codes(kpairs * 32, 9100 + kpairs);
      for (Index mv = 1; mv <= 4; ++mv) {
        for (Index nv = 1; nv <= 16; ++nv) {
          // Sentinel-filled tiles: the kernel must write exactly the mv×nv
          // corner and leave the rest untouched, on every ISA.
          std::vector<std::int32_t> want(4 * 16, -12345);
          std::vector<std::int32_t> got = want;
          kernels::scalar::int8_4x16(kpairs, ap.data(), bp.data(), nullptr, 0,
                                     want.data(), 16, mv, nv);
          kernels::ScopedIsa scoped(isa);
          kernels::active().int8_4x16(kpairs, ap.data(), bp.data(), nullptr, 0,
                                      got.data(), 16, mv, nv);
          ASSERT_EQ(want, got) << kernels::isa_name(isa) << " kpairs=" << kpairs
                               << " mv=" << mv << " nv=" << nv;
        }
      }
      // Pair skip list (every other pair, including an odd-length list):
      // the elided pairs contribute junk in this synthetic setup, so both
      // oracles must honour exactly the listed pairs.
      std::vector<std::int32_t> klist;
      for (Index p = 0; p < kpairs; p += 2) klist.push_back(p);
      std::vector<std::int32_t> want(4 * 16, 0);
      std::vector<std::int32_t> got = want;
      kernels::scalar::int8_4x16(kpairs, ap.data(), bp.data(), klist.data(),
                                 static_cast<Index>(klist.size()), want.data(),
                                 16, 3, 11);
      kernels::ScopedIsa scoped(isa);
      kernels::active().int8_4x16(kpairs, ap.data(), bp.data(), klist.data(),
                                  static_cast<Index>(klist.size()), got.data(),
                                  16, 3, 11);
      ASSERT_EQ(want, got) << kernels::isa_name(isa) << " klist kpairs="
                           << kpairs;
    }
  }
}

struct Int8GemmCase {
  Index m, k, n;
};
// Every A strip remainder (m mod 4), B strip remainder (n mod 16), and k
// parity (odd k exercises the zero-padded final pair).
const Int8GemmCase kInt8GemmCases[] = {
    {1, 1, 1},  {2, 3, 5},   {3, 8, 15},  {4, 9, 16},   {5, 16, 17},
    {7, 17, 31}, {8, 31, 32}, {9, 33, 33}, {17, 64, 47},
};

TEST(Int8KernelOracle, MatmulBitIdenticalAcrossIsas) {
  for (const Int8GemmCase& c : kInt8GemmCases) {
    // 60% zeros exercise the pair skip lists on both operands.
    const auto a_codes = random_int8_codes(c.m * c.k, 9200 + c.m * 13 + c.k,
                                           0.6);
    const auto b_codes = random_int8_codes(c.n * c.k, 9300 + c.n * 13 + c.k,
                                           0.6);
    const auto pa = gemm::pack_int8_a(a_codes.data(), c.m, c.k);
    const auto pb = gemm::pack_int8_b(b_codes.data(), c.n, c.k);
    const auto run = [&] {
      std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * c.n));
      gemm::matmul_int8(pa, pb, out.data());
      return out;
    };
    // The scalar-loop definition of the product.
    std::vector<std::int32_t> want(static_cast<std::size_t>(c.m * c.n));
    for (Index i = 0; i < c.m; ++i) {
      for (Index j = 0; j < c.n; ++j) {
        std::int32_t acc = 0;
        for (Index k = 0; k < c.k; ++k) {
          acc += std::int32_t{a_codes[i * c.k + k]} * b_codes[j * c.k + k];
        }
        want[static_cast<std::size_t>(i * c.n + j)] = acc;
      }
    }
    ASSERT_EQ(want, run()) << "m=" << c.m << " k=" << c.k << " n=" << c.n;
    for (kernels::Isa isa : simd_isas()) {
      kernels::ScopedIsa scoped(isa);
      ASSERT_EQ(want, run()) << kernels::isa_name(isa);
    }
  }
  // Depths 7 and 8 both pack to 4 pairs; the product must still refuse
  // them rather than multiply a zero pad lane against a real code.
  const auto a7 = random_int8_codes(4 * 7, 9250);
  const auto b8 = random_int8_codes(16 * 8, 9251);
  std::vector<std::int32_t> out(4 * 16);
  EXPECT_THROW(gemm::matmul_int8(gemm::pack_int8_a(a7.data(), 4, 7),
                                 gemm::pack_int8_b(b8.data(), 16, 8),
                                 out.data()),
               std::invalid_argument);
}

// The conv orientation lowers its right operand panel by panel from the
// NCHW codes; the same product over pack_int8_b of the materialised column
// matrix must agree bit for bit, requantised and scattered to NCHW, on
// every table.
TEST(Int8KernelOracle, ConvLoweredPanelsMatchPackedColumnMatrix) {
  struct Case {
    Index n, c, h, w, k, stride, pad, outc;
  };
  // Odd and even depth (C·k·k), partial B strips, panels that straddle
  // images, stride 2 and padding 0..2.
  const Case cases[] = {{1, 1, 5, 5, 3, 1, 0, 3},  {3, 2, 7, 7, 3, 1, 1, 5},
                        {2, 3, 9, 8, 3, 2, 1, 4},  {4, 1, 14, 14, 5, 1, 2, 6},
                        {5, 2, 10, 10, 2, 2, 0, 7}, {2, 4, 16, 16, 3, 1, 1, 9}};
  for (const Case& cs : cases) {
    const con::tensor::Conv2dGeometry g{
        .in_channels = cs.c, .in_h = cs.h, .in_w = cs.w, .kernel_h = cs.k,
        .kernel_w = cs.k, .stride = cs.stride, .padding = cs.pad};
    const Index depth = cs.c * cs.k * cs.k;
    const Index plane = g.out_h() * g.out_w();
    const Index total = cs.n * plane;
    const auto x = random_int8_codes(cs.n * cs.c * cs.h * cs.w,
                                     9600 + cs.n * 7 + cs.h, 0.5);
    const auto w = random_int8_codes(cs.outc * depth, 9700 + depth, 0.3);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(cs.outc));
    for (Index r = 0; r < cs.outc; ++r) {
      bias[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(r * 37 - 90);
    }
    const auto pa = gemm::pack_int8_a(w.data(), cs.outc, depth);
    // Materialised column matrix (float im2col over exact integer codes),
    // transposed to [N·P, depth] rows for pack_int8_b.
    Tensor xf({cs.n, cs.c, cs.h, cs.w});
    for (Index i = 0; i < xf.numel(); ++i) {
      xf[i] = x[static_cast<std::size_t>(i)];
    }
    const Tensor cols = con::tensor::im2col_batch(xf, g);
    std::vector<std::int8_t> colsT(static_cast<std::size_t>(total * depth));
    for (Index k = 0; k < depth; ++k) {
      for (Index j = 0; j < total; ++j) {
        colsT[static_cast<std::size_t>(j * depth + k)] =
            static_cast<std::int8_t>(cols[k * total + j]);
      }
    }
    const auto pb = gemm::pack_int8_b(colsT.data(), total, depth);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(cs.outc * total));
    gemm::matmul_int8(pa, pb, acc.data());
    const int shift = 3;
    std::vector<float> want(static_cast<std::size_t>(cs.n * cs.outc * plane));
    for (Index r = 0; r < cs.outc; ++r) {
      for (Index j = 0; j < total; ++j) {
        float v;
        kernels::scalar::requant_row_bias(&v, &acc[r * total + j], &bias[r],
                                          shift, -128, 127, 0.0625f, 1, 1);
        want[static_cast<std::size_t>(((j / plane) * cs.outc + r) * plane +
                                      j % plane)] = v;
      }
    }
    for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
      kernels::ScopedIsa scoped(isa);
      std::vector<float> got(want.size(), -7.0f);
      gemm::conv2d_int8(pa, x.data(), cs.n, g, bias.data(), shift, -128, 127,
                        0.0625f, got.data());
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << kernels::isa_name(isa) << " n=" << cs.n << " h=" << cs.h
          << " k=" << cs.k << " stride=" << cs.stride << " pad=" << cs.pad;
    }
  }
}

TEST(Int8KernelOracle, MatmulBumpsThePerIsaDispatchCounter) {
  // Every integer product — matmul_int8, conv2d_int8 and the Linear layer's
  // requantising product — is one gemm.dispatch.int8.<isa> count and one
  // requantize.* count per call, and never a float dispatch or flop count
  // (benchmark/'s tensor.gemm.int8_calls and obs_validate
  // --expect-integer-path read these).
  const auto a_codes = random_int8_codes(4 * 8, 9400);
  const auto b_codes = random_int8_codes(16 * 8, 9401);
  const auto pa = gemm::pack_int8_a(a_codes.data(), 4, 8);
  const auto pb = gemm::pack_int8_b(b_codes.data(), 16, 8);
  std::vector<std::int32_t> out(4 * 16);
  // conv2d_int8: 4 output channels over 3×3 patches of a 2-channel 6×6 batch.
  const con::tensor::Conv2dGeometry g{.in_channels = 2, .in_h = 6, .in_w = 6,
                                      .kernel_h = 3, .kernel_w = 3,
                                      .stride = 1, .padding = 1};
  const auto w_codes = random_int8_codes(4 * 18, 9402);
  const auto pw = gemm::pack_int8_a(w_codes.data(), 4, 18);
  const auto x_codes = random_int8_codes(2 * 2 * 6 * 6, 9403);
  const std::vector<std::int32_t> bias(4, 5);
  std::vector<float> y(2 * 4 * 36);
  // A Linear whose weights lie on the Q2.6 grid, so forward_int8 packs them
  // under an 8-bit key without a weight transform.
  con::util::Rng rng(9404);
  con::nn::Linear lin(8, 16, rng, "fc");
  lin.weight().edit([&](Tensor& w, Tensor&) {
    for (Index i = 0; i < w.numel(); ++i) {
      w[i] = static_cast<float>(b_codes[static_cast<std::size_t>(i)]) / 64.0f;
    }
  });
  const con::nn::Int8FormatKey key{.weight_total_bits = 8,
                                   .weight_integer_bits = 2,
                                   .act_total_bits = 8,
                                   .act_integer_bits = 2};
  const Tensor x = con::testing::random_batch({4, 8}, 9405);
  for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
    const std::string isa_name = kernels::isa_name(isa);
    const char* names[] = {"gemm.dispatch.int8.", "gemm.dispatch.blocked.",
                           "gemm.flops", "requantize.row_bias",
                           "requantize.col_bias"};
    const auto counts = [&] {
      std::vector<std::uint64_t> v;
      for (const char* n : names) {
        const std::string name = n;
        v.push_back(con::obs::counter(name.back() == '.' ? name + isa_name
                                                         : name)
                        .value());
      }
      return v;
    };
    kernels::ScopedIsa scoped(isa);
    const auto expect_counts = [&](const char* what, auto call,
                                   std::vector<std::uint64_t> delta) {
      const std::vector<std::uint64_t> before = counts();
      call();
      const std::vector<std::uint64_t> after = counts();
      for (std::size_t i = 0; i < delta.size(); ++i) {
        EXPECT_EQ(after[i] - before[i], delta[i])
            << what << " on " << isa_name << ": " << names[i];
      }
    };
    expect_counts("matmul_int8",
                  [&] { gemm::matmul_int8(pa, pb, out.data()); },
                  {1, 0, 0, 0, 0});
    expect_counts("conv2d_int8", [&] {
      gemm::conv2d_int8(pw, x_codes.data(), 2, g, bias.data(), 3, -128, 127,
                        0.0625f, y.data());
    }, {1, 0, 0, 1, 0});
    expect_counts("Linear::forward_int8",
                  [&] { (void)lin.forward_int8(x, key); }, {1, 0, 0, 0, 1});
  }
}

TEST(Int8KernelOracle, PackingPadsOddDepthAndRecordsExactSkipLists) {
  const Index rows = 6, depth = 5;  // odd depth: final pair pads u = 1
  auto codes = random_int8_codes(rows * depth, 9500);
  // Kill pair 1 (k = 2, 3) of every row so the skip lists must elide it.
  for (Index r = 0; r < rows; ++r) {
    codes[r * depth + 2] = 0;
    codes[r * depth + 3] = 0;
  }
  const auto pa = gemm::pack_int8_a(codes.data(), rows, depth);
  EXPECT_EQ(pa.kpairs, 3);
  const Index kpairs = pa.kpairs;
  for (Index s = 0; s < pa.num_strips(); ++s) {
    for (Index i = 0; i < 4; ++i) {
      const Index r = s * 4 + i;
      for (Index p = 0; p < kpairs; ++p) {
        for (Index u = 0; u < 2; ++u) {
          const Index k = 2 * p + u;
          const std::int16_t want =
              (r < rows && k < depth) ? codes[r * depth + k] : 0;
          EXPECT_EQ(pa.data[((s * kpairs + p) * 4 + i) * 2 + u], want)
              << "strip " << s << " row " << i << " pair " << p << " lane "
              << u;
        }
      }
    }
    const std::vector<std::int32_t> strip_pairs(
        pa.nnz_p.begin() + pa.nnz_ptr[static_cast<std::size_t>(s)],
        pa.nnz_p.begin() + pa.nnz_ptr[static_cast<std::size_t>(s) + 1]);
    EXPECT_EQ(strip_pairs, (std::vector<std::int32_t>{0, 2}))
        << "pair 1 is all-zero in strip " << s;
  }
  const auto pb = gemm::pack_int8_b(codes.data(), rows, depth);
  EXPECT_EQ(pb.kpairs, 3);
  for (Index t = 0; t < rows; ++t) {
    for (Index p = 0; p < kpairs; ++p) {
      for (Index u = 0; u < 2; ++u) {
        const Index k = 2 * p + u;
        const std::int8_t want = k < depth ? codes[t * depth + k] : 0;
        EXPECT_EQ(pb.data[((0 * kpairs + p) * 16 + t) * 2 + u], want);
      }
    }
  }
}

TEST(Int8KernelOracle, QuantI8BitIdenticalIncludingHalfwayTies) {
  // 4-bit 1-int-bit activation grid: step 2⁻³, values clamp to [-1, 0.875].
  const float inv_step = 8.0f, lo = -1.0f, hi = 0.875f;
  for (kernels::Isa isa : simd_isas()) {
    for (Index n : kElemSizes) {
      con::util::Rng rng(9600 + static_cast<std::uint64_t>(n));
      std::vector<float> src(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) {
        const double u = rng.uniform();
        if (u < 0.3) {
          // Exact halfway point between two codes: round-half-even makes
          // (k + 0.5)/8 round down for even k and up for odd k — any ISA
          // that rounds half-away diverges here.
          const int k = static_cast<int>(rng.uniform() * 14.0) - 7;
          src[static_cast<std::size_t>(i)] =
              (static_cast<float>(k) + 0.5f) / 8.0f;
        } else if (u < 0.4) {
          src[static_cast<std::size_t>(i)] = rng.uniform_f(-4.0f, 4.0f);  // clamps
        } else {
          src[static_cast<std::size_t>(i)] = rng.uniform_f(-1.2f, 1.2f);
        }
      }
      std::vector<std::int8_t> want(static_cast<std::size_t>(n), 99);
      std::vector<std::int8_t> got = want;
      kernels::scalar::quant_i8(want.data(), src.data(), inv_step, lo, hi, n);
      kernels::ScopedIsa scoped(isa);
      kernels::active().quant_i8(got.data(), src.data(), inv_step, lo, hi, n);
      ASSERT_EQ(want, got) << kernels::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(Int8KernelOracle, RequantBitIdenticalIncludingShiftZeroAndTies) {
  const Index rows = 5, cols = 17;  // off the 8/16 vector widths
  con::util::Rng rng(9700);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * cols));
  for (Index i = 0; i < rows * cols; ++i) {
    const double u = rng.uniform();
    if (u < 0.3) {
      // Exact tie at the shift-4 rounding point: v = 16q + 8 with q of
      // either parity (round-half-even keeps even q, bumps odd q).
      const int q = static_cast<int>(rng.uniform() * 40.0) - 20;
      acc[static_cast<std::size_t>(i)] = q * 16 + 8;
    } else if (u < 0.4) {
      acc[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(rng.uniform() * 2e6) - 1000000;  // saturates
    } else {
      acc[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(rng.uniform() * 4000.0) - 2000;
    }
  }
  std::vector<std::int32_t> cbias(static_cast<std::size_t>(cols));
  std::vector<std::int32_t> rbias(static_cast<std::size_t>(rows));
  for (auto& b : cbias) b = static_cast<std::int32_t>(rng.uniform() * 64) - 32;
  for (auto& b : rbias) b = static_cast<std::int32_t>(rng.uniform() * 64) - 32;
  const std::int32_t lo = -128, hi = 127;
  const float scale = 0.0078125f;  // 2⁻⁷, exact
  for (kernels::Isa isa : simd_isas()) {
    for (int shift : {0, 4, 7}) {
      std::vector<float> want(static_cast<std::size_t>(rows * cols));
      std::vector<float> got = want;
      kernels::scalar::requant_col_bias(want.data(), acc.data(), cbias.data(),
                                        shift, lo, hi, scale, rows, cols);
      {
        kernels::ScopedIsa scoped(isa);
        kernels::active().requant_col_bias(got.data(), acc.data(),
                                           cbias.data(), shift, lo, hi, scale,
                                           rows, cols);
      }
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << kernels::isa_name(isa) << " col_bias shift=" << shift;
      kernels::scalar::requant_row_bias(want.data(), acc.data(), rbias.data(),
                                        shift, lo, hi, scale, rows, cols);
      {
        kernels::ScopedIsa scoped(isa);
        kernels::active().requant_row_bias(got.data(), acc.data(),
                                           rbias.data(), shift, lo, hi, scale,
                                           rows, cols);
      }
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << kernels::isa_name(isa) << " row_bias shift=" << shift;
    }
  }
}

TEST(Int8KernelOracle, RequantRoundsHalfToEvenAndSaturates) {
  // Direct semantics of the scalar oracle (DESIGN.md §5 integer contract):
  // ties go to the even quotient, saturation clamps to the code range.
  const std::int32_t acc[] = {8, 24, -8, -24, 1 << 20, -(1 << 20)};
  const std::int32_t bias[] = {0, 0, 0, 0, 0, 0};
  float y[6];
  kernels::scalar::requant_col_bias(y, acc, bias, /*shift=*/4, -128, 127,
                                    1.0f, 1, 6);
  EXPECT_EQ(y[0], 0.0f);    // 8/16 = 0.5 → 0 (even)
  EXPECT_EQ(y[1], 2.0f);    // 24/16 = 1.5 → 2 (even)
  EXPECT_EQ(y[2], 0.0f);    // -0.5 → 0
  EXPECT_EQ(y[3], -2.0f);   // -1.5 → -2
  EXPECT_EQ(y[4], 127.0f);  // saturate high
  EXPECT_EQ(y[5], -128.0f); // saturate low
  // shift == 0 bypasses the rounding formula entirely (1 << -1 is UB).
  kernels::scalar::requant_col_bias(y, acc, bias, /*shift=*/0, -128, 127,
                                    1.0f, 1, 6);
  EXPECT_EQ(y[0], 8.0f);
  EXPECT_EQ(y[4], 127.0f);
}

// ---- allocation regression (tensor buffers; test_heap.cpp counts the heap) -

TEST(KernelRegression, BlockedGemmAllocatesOnlyTheOutput) {
  const std::vector<kernels::Isa> isas = simd_isas({kernels::Isa::kScalar});
  const Tensor a = make_input(32, 64, 71, Fill::kRandom);
  const Tensor b = make_input(64, 300, 72, Fill::kRandom);
  const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
  for (kernels::Isa isa : isas) {
    kernels::ScopedIsa scoped(isa);
    (void)gemm::matmul_nn(pa, b);  // warm up dispatch + thread scratch
    const std::uint64_t before = Tensor::buffer_allocations();
    constexpr int kIters = 4;
    for (int i = 0; i < kIters; ++i) {
      (void)gemm::matmul_nn(pa, b);
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before,
              static_cast<std::uint64_t>(kIters))
        << "dispatch path allocated tensor buffers beyond the output on "
        << kernels::isa_name(isa);
  }
}

}  // namespace
