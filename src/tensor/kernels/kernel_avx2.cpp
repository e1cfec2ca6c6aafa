// AVX2+FMA kernel table (x86-64).
//
// Compiled with per-TU `-mavx2 -mfma -ffp-contract=off` (src/tensor/
// CMakeLists.txt) so the rest of the tree stays baseline-ISA: these
// functions are only reached through the dispatch table after the runtime
// cpuid probe confirms the host executes them. `-ffp-contract=off` matters:
// every fused multiply-add below is an *explicit* _mm256_fmadd intrinsic,
// and every deliberately-unfused multiply+add stays unfused — the compiler
// may not re-contract them, or the elementwise bit-identity contract
// (dispatch.h) would silently break.
//
// Precision notes (DESIGN.md §5, "SIMD precision contract"):
//  - nn_4x8: float accumulators, FMA, and two interleaved partial sums per
//    output element (even/odd k, combined once at the end) to cover FMA
//    latency with eight independent chains. Differs from scalar within
//    |Δ| ≤ 2·γ_{K+1}·Σ|a·b|, γ_K = K·2⁻²⁴.
//  - nt_2x8: double accumulators, ascending k, one chain per element. A
//    product of two floats is exact in double (24+24 < 53 mantissa bits),
//    so fused and unfused rounding agree and the result is bit-identical
//    to the scalar kernel.
//  - axpy / elementwise: multiply and add kept separate → bit-identical.
//  - fake_quant: exact power-of-two scaling + current-mode rounding →
//    bit-identical.
//  - maxpool2x2: ordered compare + select, no arithmetic → bit-identical.
//  - lower_strip*: loads, gathers and byte shuffles, no arithmetic on the
//    values → bit-identical.
#include "tensor/kernels/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <limits>

#include "tensor/kernels/kernel_scalar.h"

namespace con::tensor::kernels {

namespace {

// Float register-tile kernel, MR=4 (gemm::kStripA), NR=8 (gemm::kStripB).
// Eight ymm accumulators: rows 0..3 × {even k, odd k}. The zero-skip
// contract of the scalar kernel is preserved by arithmetic instead of
// branching: a zero A lane contributes fma(±0·b) = ±0, which never changes
// a finite accumulation (gemm.h).
void nn_4x8_avx2(Index depth, const float* __restrict ap,
                 const float* __restrict bp,
                 const std::int32_t* __restrict klist, Index nk, float* c,
                 Index ldc, Index mv, Index nv) {
  __m256 e0 = _mm256_setzero_ps(), e1 = e0, e2 = e0, e3 = e0;  // even chains
  __m256 o0 = e0, o1 = e0, o2 = e0, o3 = e0;                   // odd chains
  if (klist == nullptr) {
    Index k = 0;
    for (; k + 1 < depth; k += 2) {
      const float* a0 = ap + k * 4;
      const __m256 b0 = _mm256_loadu_ps(bp + k * 8);
      const __m256 b1 = _mm256_loadu_ps(bp + (k + 1) * 8);
      e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 0), b0, e0);
      e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 1), b0, e1);
      e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 2), b0, e2);
      e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 3), b0, e3);
      o0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 4), b1, o0);
      o1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 5), b1, o1);
      o2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 6), b1, o2);
      o3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 7), b1, o3);
    }
    if (k < depth) {
      const float* a0 = ap + k * 4;
      const __m256 b0 = _mm256_loadu_ps(bp + k * 8);
      e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 0), b0, e0);
      e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 1), b0, e1);
      e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 2), b0, e2);
      e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 3), b0, e3);
    }
  } else {
    Index t = 0;
    for (; t + 1 < nk; t += 2) {
      const Index ka = klist[t], kb = klist[t + 1];
      const float* aa = ap + ka * 4;
      const float* ab = ap + kb * 4;
      const __m256 b0 = _mm256_loadu_ps(bp + ka * 8);
      const __m256 b1 = _mm256_loadu_ps(bp + kb * 8);
      e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 0), b0, e0);
      e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 1), b0, e1);
      e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 2), b0, e2);
      e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 3), b0, e3);
      o0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ab + 0), b1, o0);
      o1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ab + 1), b1, o1);
      o2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ab + 2), b1, o2);
      o3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ab + 3), b1, o3);
    }
    if (t < nk) {
      const Index ka = klist[t];
      const float* aa = ap + ka * 4;
      const __m256 b0 = _mm256_loadu_ps(bp + ka * 8);
      e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 0), b0, e0);
      e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 1), b0, e1);
      e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 2), b0, e2);
      e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(aa + 3), b0, e3);
    }
  }
  // Combine the even/odd partial sums (the one reassociation this kernel
  // performs) and write the valid tile corner.
  const __m256 r0 = _mm256_add_ps(e0, o0);
  const __m256 r1 = _mm256_add_ps(e1, o1);
  const __m256 r2 = _mm256_add_ps(e2, o2);
  const __m256 r3 = _mm256_add_ps(e3, o3);
  if (mv == 4 && nv == 8) {
    _mm256_storeu_ps(c + 0 * ldc, r0);
    _mm256_storeu_ps(c + 1 * ldc, r1);
    _mm256_storeu_ps(c + 2 * ldc, r2);
    _mm256_storeu_ps(c + 3 * ldc, r3);
  } else {
    alignas(32) float tile[4][8];
    _mm256_store_ps(tile[0], r0);
    _mm256_store_ps(tile[1], r1);
    _mm256_store_ps(tile[2], r2);
    _mm256_store_ps(tile[3], r3);
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = tile[i][j];
    }
  }
}

// Double-accumulating NT kernel, MR=2 (gemm::kStripANt), NR=8, carrying
// the caller's double tile. One chain per output element in ascending k,
// exactly like the scalar kernel — float·float products are exact in
// double, so this is bit-identical to it (the claim tests/test_kernels.cpp
// asserts with ASSERT_EQ), across any split of the depth into calls.
void nt_2x8_avx2(Index depth, const float* __restrict ap,
                 const float* __restrict bp,
                 const std::int32_t* __restrict klist, Index nk,
                 double* acc) {
  __m256d a0lo = _mm256_loadu_pd(acc + 0);  // row 0, cols 0-3 / 4-7
  __m256d a0hi = _mm256_loadu_pd(acc + 4);
  __m256d a1lo = _mm256_loadu_pd(acc + 8);  // row 1
  __m256d a1hi = _mm256_loadu_pd(acc + 12);
  auto step = [&](Index k) {
    const __m256 bf = _mm256_loadu_ps(bp + k * 8);
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(bf));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(bf, 1));
    const __m256d av0 = _mm256_set1_pd(static_cast<double>(ap[k * 2 + 0]));
    const __m256d av1 = _mm256_set1_pd(static_cast<double>(ap[k * 2 + 1]));
    a0lo = _mm256_fmadd_pd(av0, blo, a0lo);
    a0hi = _mm256_fmadd_pd(av0, bhi, a0hi);
    a1lo = _mm256_fmadd_pd(av1, blo, a1lo);
    a1hi = _mm256_fmadd_pd(av1, bhi, a1hi);
  };
  if (klist == nullptr) {
    for (Index k = 0; k < depth; ++k) step(k);
  } else {
    for (Index t = 0; t < nk; ++t) step(klist[t]);
  }
  _mm256_storeu_pd(acc + 0, a0lo);
  _mm256_storeu_pd(acc + 4, a0hi);
  _mm256_storeu_pd(acc + 8, a1lo);
  _mm256_storeu_pd(acc + 12, a1hi);
}

// ---- elementwise: unfused multiply+add, bit-identical to scalar -------------
// Remainders run the scalar loops from kernel_scalar.h so there is exactly
// one definition of the per-element operation.

void axpy_avx2(float* d, const float* s, float a, Index n) {
  const __m256 av = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sv = _mm256_loadu_ps(s + i);
    const __m256 dv = _mm256_loadu_ps(d + i);
    _mm256_storeu_ps(d + i, _mm256_add_ps(dv, _mm256_mul_ps(av, sv)));
  }
  scalar::axpy(d + i, s + i, a, n - i);
}

void axpy_out_avx2(float* d, const float* a, const float* b, float s,
                   Index n) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(d + i, _mm256_add_ps(av, _mm256_mul_ps(sv, bv)));
  }
  scalar::axpy_out(d + i, a + i, b + i, s, n - i);
}

void add_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::add(d + i, s + i, n - i);
}

void sub_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_sub_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::sub(d + i, s + i, n - i);
}

void mul_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::mul(d + i, s + i, n - i);
}

void scale_avx2(float* d, float s, Index n) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), sv));
  }
  scalar::scale(d + i, s, n - i);
}

// min/max operand order replicates std::min(hi, std::max(lo, x)) ties:
// vmaxps/vminps return the second operand on equality, and
// std::max(lo, x) == lo / std::min(hi, t) == hi on equality, so the
// second operand must be lo / hi respectively.
void clamp_avx2(float* d, float lo, float hi, Index n) {
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(d + i);
    _mm256_storeu_ps(d + i, _mm256_min_ps(_mm256_max_ps(x, lov), hiv));
  }
  scalar::clamp(d + i, lo, hi, n - i);
}

// x > 0 ? x : 0 via a comparison mask (not vmaxps) so that relu(-0.0f)
// returns +0.0f exactly like the scalar branch.
void relu_avx2(float* d, const float* s, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(s + i);
    const __m256 pos = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(d + i, _mm256_and_ps(x, pos));
  }
  scalar::relu(d + i, s + i, n - i);
}

void sign_avx2(float* d, const float* s, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 neg_one = _mm256_set1_ps(-1.0f);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(s + i);
    const __m256 pos = _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_GT_OQ), one);
    const __m256 neg =
        _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_LT_OQ), neg_one);
    _mm256_storeu_ps(d + i, _mm256_or_ps(pos, neg));
  }
  scalar::sign(d + i, s + i, n - i);
}

void relu_bwd_avx2(float* g, const float* in, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256 keep = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(_mm256_loadu_ps(g + i), keep));
  }
  scalar::relu_bwd(g + i, in + i, n - i);
}

// The fused tail's ReLU: relu_avx2's output and, in the mask, -1 on the
// lanes relu_bwd_avx2 zeroes (not x > 0), else the gate or 1.
void relu_mask_avx2(float* x, float* mask, const float* gate, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 neg_one = _mm256_set1_ps(-1.0f);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 keep = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    const __m256 g = gate != nullptr ? _mm256_loadu_ps(gate + i) : one;
    _mm256_storeu_ps(mask + i, _mm256_blendv_ps(neg_one, g, keep));
    _mm256_storeu_ps(x + i, _mm256_and_ps(v, keep));
  }
  scalar::relu_mask(x + i, mask + i, gate == nullptr ? nullptr : gate + i,
                    n - i);
}

// g·mask with the -1 lanes cleared to +0; multiplying by the 0/1 mask is
// exact, so this is scalar::tail_bwd bit for bit.
void tail_bwd_avx2(float* g, const float* mask, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 m = _mm256_loadu_ps(mask + i);
    const __m256 keep = _mm256_cmp_ps(m, zero, _CMP_GE_OQ);
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(g + i), m);
    _mm256_storeu_ps(g + i, _mm256_and_ps(prod, keep));
  }
  scalar::tail_bwd(g + i, mask + i, n - i);
}

// Fixed-point fake-quant, bit-identical to scalar::fake_quant. step is a
// power of two, so x·inv_step and x/step are the correctly rounded value of
// the same real number (overflow to ±inf included); vroundps in the current
// direction is std::nearbyint (ties to even, -0 preserved). Ordered
// compares are false for NaN, so NaN passes through with gate 1, and a
// value that rounds exactly onto hi is not "saturated".
void fake_quant_avx2(float* d, float* g, const float* s, float step,
                     float inv_step, float lo, float hi, Index n) {
  const __m256 stepv = _mm256_set1_ps(step);
  const __m256 inv = _mm256_set1_ps(inv_step);
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  const __m256 one = _mm256_set1_ps(1.0f);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = _mm256_round_ps(
        _mm256_mul_ps(_mm256_loadu_ps(s + i), inv),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    const __m256 q = _mm256_mul_ps(r, stepv);
    const __m256 below = _mm256_cmp_ps(q, lov, _CMP_LT_OQ);
    const __m256 above = _mm256_cmp_ps(q, hiv, _CMP_GT_OQ);
    _mm256_storeu_ps(
        d + i, _mm256_blendv_ps(_mm256_blendv_ps(q, lov, below), hiv, above));
    if (g != nullptr) {
      _mm256_storeu_ps(g + i,
                       _mm256_andnot_ps(_mm256_or_ps(below, above), one));
    }
  }
  scalar::fake_quant(d + i, g == nullptr ? nullptr : g + i, s + i, step,
                     inv_step, lo, hi, n - i);
}

// ---- int8 integer path: exact integer arithmetic, bit-identical to the
// scalar oracle on every input (dispatch.h). ---------------------------------

// Int8 register-tile kernel, MR=4, NR=16, int32 accumulators. Per k-pair:
// the 32-byte B block is two vpmovsxbw widenings, one A row pair is a
// single 32-bit broadcast straight from the int16 panel, and vpmaddwd
// computes a0·b0 + a1·b1 for eight columns at once — exact int32, never
// saturating (|a·b| ≤ 2¹⁴ per term, one pair per madd). Integer addition
// is associative, so the pair-at-a-time order matches the scalar oracle
// bit for bit; zero pairs contribute exact zeros (no branch needed).
void int8_4x16_avx2(Index kpairs, const std::int16_t* __restrict ap,
                    const std::int8_t* __restrict bp,
                    const std::int32_t* __restrict klist, Index nk,
                    std::int32_t* c, Index ldc, Index mv, Index nv) {
  __m256i acc00 = _mm256_setzero_si256(), acc01 = acc00;  // row 0: cols 0-7/8-15
  __m256i acc10 = acc00, acc11 = acc00;
  __m256i acc20 = acc00, acc21 = acc00;
  __m256i acc30 = acc00, acc31 = acc00;
  const std::int32_t* ap32 = reinterpret_cast<const std::int32_t*>(ap);
  auto step = [&](Index p) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 32));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
    const std::int32_t* a = ap32 + p * 4;
    const __m256i a0 = _mm256_set1_epi32(a[0]);
    acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(a0, blo));
    acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(a0, bhi));
    const __m256i a1 = _mm256_set1_epi32(a[1]);
    acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(a1, blo));
    acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(a1, bhi));
    const __m256i a2 = _mm256_set1_epi32(a[2]);
    acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(a2, blo));
    acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(a2, bhi));
    const __m256i a3 = _mm256_set1_epi32(a[3]);
    acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(a3, blo));
    acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(a3, bhi));
  };
  if (klist == nullptr) {
    for (Index p = 0; p < kpairs; ++p) step(p);
  } else {
    for (Index t = 0; t < nk; ++t) step(klist[t]);
  }
  if (mv == 4 && nv == 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 0), acc00);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 8), acc01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 0), acc10);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 8), acc11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 0), acc20);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 8), acc21);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 0), acc30);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 8), acc31);
  } else {
    alignas(32) std::int32_t tile[4][16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 0), acc00);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 8), acc01);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 0), acc10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 8), acc11);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 0), acc20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 8), acc21);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 0), acc30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 8), acc31);
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = tile[i][j];
    }
  }
}

// Float → int8 code quantisation. Clamp to the exactly-representable value
// bounds first, scale by the power-of-two inv_step (exact), then
// vcvtps2dq — round-half-even in the default FP environment, the same real
// rounded to the same integer as the scalar std::nearbyint. The pack
// instructions saturate, but the values are already inside [-128, 127], so
// saturation never fires.
void quant_i8_avx2(std::int8_t* d, const float* s, float inv_step, float lo,
                   float hi, Index n) {
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  const __m256 inv = _mm256_set1_ps(inv_step);
  Index i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 v0 =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(s + i), lov), hiv);
    const __m256 v1 =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(s + i + 8), lov), hiv);
    const __m256i i0 = _mm256_cvtps_epi32(_mm256_mul_ps(v0, inv));
    const __m256i i1 = _mm256_cvtps_epi32(_mm256_mul_ps(v1, inv));
    // packs interleaves 128-bit lanes; permute restores element order.
    const __m256i p16 = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(i0, i1), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                       _mm256_extracti128_si256(p16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), p8);
  }
  scalar::quant_i8(d + i, s + i, inv_step, lo, hi, n - i);
}

// Vectorized round-half-even right shift + saturate + exact int→float
// scale (dispatch.h). Shared by both bias layouts.
inline __m256i requant8_avx2(__m256i v, __m128i shiftv, int shift,
                             __m256i half, __m256i one, __m256i lov,
                             __m256i hiv) {
  __m256i q;
  if (shift == 0) {
    q = v;
  } else {
    q = _mm256_sra_epi32(v, shiftv);
    const __m256i rem = _mm256_sub_epi32(v, _mm256_sll_epi32(q, shiftv));
    const __m256i gt = _mm256_cmpgt_epi32(rem, half);
    const __m256i eq = _mm256_cmpeq_epi32(rem, half);
    const __m256i odd =
        _mm256_cmpeq_epi32(_mm256_and_si256(q, one), one);
    const __m256i inc = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
    q = _mm256_sub_epi32(q, inc);  // inc lanes are -1 where we round up
  }
  q = _mm256_max_epi32(q, lov);
  q = _mm256_min_epi32(q, hiv);
  return q;
}

void requant_col_bias_avx2(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols) {
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m256i half =
      _mm256_set1_epi32(shift == 0 ? 0 : std::int32_t{1} << (shift - 1));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  const __m256 sc = _mm256_set1_ps(scale);
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * cols;
    float* yrow = y + r * cols;
    Index j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i v = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + j)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + j)));
      const __m256i q = requant8_avx2(v, shiftv, shift, half, one, lov, hiv);
      _mm256_storeu_ps(yrow + j, _mm256_mul_ps(_mm256_cvtepi32_ps(q), sc));
    }
    scalar::requant_col_bias(yrow + j, arow + j, bias + j, shift, lo, hi,
                             scale, 1, cols - j);
  }
}

void requant_row_bias_avx2(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols) {
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m256i half =
      _mm256_set1_epi32(shift == 0 ? 0 : std::int32_t{1} << (shift - 1));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  const __m256 sc = _mm256_set1_ps(scale);
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * cols;
    float* yrow = y + r * cols;
    const __m256i bv = _mm256_set1_epi32(bias[r]);
    Index j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i v = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + j)), bv);
      const __m256i q = requant8_avx2(v, shiftv, shift, half, one, lov, hiv);
      _mm256_storeu_ps(yrow + j, _mm256_mul_ps(_mm256_cvtepi32_ps(q), sc));
    }
    scalar::requant_row_bias(yrow + j, arow + j, bias + r, shift, lo, hi,
                             scale, 1, cols - j);
  }
}

// The panel-pack row scatter: one 8-float load/store plus a NEQ mask per
// strip column. _CMP_NEQ_UQ (unordered) makes NaN lanes count as nonzero,
// matching the scalar `!= 0.0f` test.
void pack_row8_avx2(float* panel, const float* src, Index jn, Index depth,
                    Index k, char* flags) {
  const __m256 zero = _mm256_setzero_ps();
  const Index full = jn / 8;
  for (Index s = 0; s < full; ++s) {
    const __m256 v = _mm256_loadu_ps(src + s * 8);
    _mm256_storeu_ps(panel + (s * depth + k) * 8, v);
    flags[s * depth + k] =
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)) != 0;
  }
  const Index c0 = full * 8;
  if (c0 < jn) {
    float* dst = panel + (full * depth + k) * 8;
    char nz = 0;
    for (Index t = 0; t < jn - c0; ++t) {
      dst[t] = src[c0 + t];
      nz |= (dst[t] != 0.0f);
    }
    flags[full * depth + k] = nz;
  }
}

// The float strip writer. A strip inside one output row (cs.row) loads
// each column as one contiguous 8-float run, or, where the run meets the
// image's left or right padding, gathers it masked to the lanes inside
// the row (masked lanes read nothing and yield +0, the padding value).
// Other strips (straddling rows or images, stride 2, the partial tail
// strip) take the scalar run writer. Either way every column is
// scalar::lower_strip8's.
void lower_strip8_avx2(float* strip, char* flags, const float* x,
                       const ConvStrip& cs) {
  if (!cs.row) {
    scalar::lower_strip8(strip, flags, x, cs);
    return;
  }
  const __m256 zero = _mm256_setzero_ps();
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i none = _mm256_set1_epi32(-1);
  const Index in_w = cs.in_w;
  const __m256i w_last = _mm256_set1_epi32(static_cast<int>(in_w - 1));
  Index k = 0;
  auto put = [&](__m256 v) {
    _mm256_storeu_ps(strip + k * 8, v);
    flags[k] = _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)) != 0;
    ++k;
  };
  for (Index c = 0; c < cs.channels; ++c) {
    for (Index kh = 0; kh < cs.kernel_h; ++kh) {
      const Index iy = cs.iy0[0] + kh;
      if (iy < 0 || iy >= cs.in_h) {
        for (Index kw = 0; kw < cs.kernel_w; ++kw) put(zero);
        continue;
      }
      const float* src = x + cs.image[0] + (c * cs.in_h + iy) * in_w;
      for (Index kw = 0; kw < cs.kernel_w; ++kw) {
        const Index x0 = cs.ix0[0] + kw;
        if (x0 >= 0 && x0 + 8 <= in_w) {
          put(_mm256_loadu_ps(src + x0));
          continue;
        }
        const __m256i ix =
            _mm256_add_epi32(lane, _mm256_set1_epi32(static_cast<int>(x0)));
        const __m256i inside = _mm256_andnot_si256(
            _mm256_cmpgt_epi32(ix, w_last), _mm256_cmpgt_epi32(ix, none));
        put(_mm256_mask_i32gather_ps(zero, src, ix,
                                     _mm256_castsi256_ps(inside), 4));
      }
    }
  }
}

// The int8 pair-strip writer. A strip inside one output row (cs.row) of an
// input at least 16 codes wide builds each column-matrix row as 16 codes:
// one unaligned load, or — where the run meets padding — a load kept
// inside the input row and shifted into place by a byte shuffle whose
// out-of-row lanes select 0. Rows 2p and 2p + 1 are then interleaved into
// the pair block with unpacklo/hi. Other strips (straddling rows or
// images, stride 2, narrow inputs, the partial tail strip) take the scalar
// run writer. Either way every block is scalar::lower_strip16_int8's.
void lower_strip16_int8_avx2(std::int8_t* strip, char* flags,
                             const std::int8_t* x, const ConvStrip& cs) {
  const Index in_w = cs.in_w;
  if (!cs.row || in_w < 16) {
    scalar::lower_strip16_int8(strip, flags, x, cs);
    return;
  }
  const __m128i lane =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i select_zero = _mm_set1_epi8(static_cast<char>(0x80));
  // The codes of column-matrix row (c, kh, kw).
  auto codes = [&](Index c, Index kh, Index kw) -> __m128i {
    const Index iy = cs.iy0[0] + kh;
    if (iy < 0 || iy >= cs.in_h) return _mm_setzero_si128();
    const std::int8_t* src = x + cs.image[0] + (c * cs.in_h + iy) * in_w;
    const Index x0 = cs.ix0[0] + kw;
    if (x0 >= 0 && x0 + 16 <= in_w) {
      return _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + x0));
    }
    const Index at = std::min(std::max<Index>(x0, 0), in_w - 16);
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + at));
    // Lanes [lo, hi) lie inside the row; lane t reads byte x0 + t − at.
    const Index lo = std::min<Index>(std::max<Index>(-x0, 0), 16);
    const Index hi = std::min<Index>(std::max<Index>(in_w - x0, 0), 16);
    const __m128i keep = _mm_andnot_si128(
        _mm_cmplt_epi8(lane, _mm_set1_epi8(static_cast<char>(lo))),
        _mm_cmplt_epi8(lane, _mm_set1_epi8(static_cast<char>(hi))));
    const __m128i idx =
        _mm_add_epi8(lane, _mm_set1_epi8(static_cast<char>(x0 - at)));
    return _mm_shuffle_epi8(
        v, _mm_or_si128(_mm_and_si128(keep, idx),
                        _mm_andnot_si128(keep, select_zero)));
  };
  __m128i even = _mm_setzero_si128();
  auto put = [&](Index p, __m128i odd) {
    std::int8_t* blk = strip + p * 32;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(blk),
                     _mm_unpacklo_epi8(even, odd));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(blk + 16),
                     _mm_unpackhi_epi8(even, odd));
    const __m128i any = _mm_or_si128(even, odd);
    flags[p] = _mm_testz_si128(any, any) == 0;
  };
  scalar::for_each_row(cs, [&](Index k, Index c, Index kh, Index kw) {
    if (k % 2 == 0) {
      even = codes(c, kh, kw);
    } else {
      put(k / 2, codes(c, kh, kw));
    }
  });
  const Index depth = cs.channels * cs.kernel_h * cs.kernel_w;
  if (depth % 2 != 0) put(depth / 2, _mm_setzero_si128());
}

// Even and odd elements of the 16 floats lo:hi, in order.
inline __m256 even_lanes(__m256 lo, __m256 hi) {
  const __m256 t = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(t), _MM_SHUFFLE(3, 1, 2, 0)));
}
inline __m256 odd_lanes(__m256 lo, __m256 hi) {
  const __m256 t = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(t), _MM_SHUFFLE(3, 1, 2, 0)));
}

// 2×2 / stride-2 max pooling, eight windows per step: the scalar branch
// sequence as ordered greater-than (_CMP_GT_OQ: false for NaN, +0 vs -0
// keeps the earlier) selecting both the value and the element's offset in
// the window, so output and index bits match scalar::maxpool2x2.
void maxpool2x2_avx2(float* out, Index* idx, const float* in, Index planes,
                     Index h, Index w) {
  const Index oh = h / 2, ow = w / 2;
  const __m256 ninf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256 off1 = _mm256_castsi256_ps(_mm256_set1_epi32(1));
  const __m256 offw =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(w)));
  const __m256 offw1 =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(w + 1)));
  const __m256i lane2 = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  for (Index pl = 0; pl < planes; ++pl) {
    for (Index py = 0; py < oh; ++py) {
      const Index base = (pl * h + 2 * py) * w;
      const float* r0 = in + base;
      const float* r1 = r0 + w;
      float* o = out + (pl * oh + py) * ow;
      Index* ix = idx == nullptr ? nullptr : idx + (pl * oh + py) * ow;
      Index px = 0;
      for (; px + 8 <= ow; px += 8) {
        const __m256 a_lo = _mm256_loadu_ps(r0 + 2 * px);
        const __m256 a_hi = _mm256_loadu_ps(r0 + 2 * px + 8);
        const __m256 b_lo = _mm256_loadu_ps(r1 + 2 * px);
        const __m256 b_hi = _mm256_loadu_ps(r1 + 2 * px + 8);
        const __m256 v0 = even_lanes(a_lo, a_hi);
        const __m256 v1 = odd_lanes(a_lo, a_hi);
        const __m256 v2 = even_lanes(b_lo, b_hi);
        const __m256 v3 = odd_lanes(b_lo, b_hi);
        __m256 m = _mm256_cmp_ps(v0, ninf, _CMP_GT_OQ);
        __m256 best = _mm256_blendv_ps(ninf, v0, m);
        __m256 off = _mm256_setzero_ps();
        m = _mm256_cmp_ps(v1, best, _CMP_GT_OQ);
        best = _mm256_blendv_ps(best, v1, m);
        off = _mm256_blendv_ps(off, off1, m);
        m = _mm256_cmp_ps(v2, best, _CMP_GT_OQ);
        best = _mm256_blendv_ps(best, v2, m);
        off = _mm256_blendv_ps(off, offw, m);
        m = _mm256_cmp_ps(v3, best, _CMP_GT_OQ);
        best = _mm256_blendv_ps(best, v3, m);
        off = _mm256_blendv_ps(off, offw1, m);
        _mm256_storeu_ps(o + px, best);
        if (ix == nullptr) continue;
        // Window offset plus 2·(px + lane), widened to 64 bits and rebased.
        const __m256i rel = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_castps_si256(off), lane2),
            _mm256_set1_epi32(static_cast<int>(2 * px)));
        const __m256i basev = _mm256_set1_epi64x(base);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(ix + px),
            _mm256_add_epi64(
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(rel)), basev));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(ix + px + 4),
            _mm256_add_epi64(
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(rel, 1)),
                basev));
      }
      scalar::maxpool2x2_row(o, ix, r0, r1, w, base, px, ow);
    }
  }
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::kAvx2;
    // Re-tuned crossover (gemm.cpp PR 2 used 1<<15 for the scalar tiles):
    // the 8-wide FMA kernel amortises pack+dispatch ~4× sooner, measured at
    // square shapes on AVX2 hosts (tests/test_kernels.cpp only requires
    // correctness at any value; bench_micro_ops shows the win).
    k.small_gemm_flops = 1 << 13;
    k.nn_4x8 = &nn_4x8_avx2;
    k.nt_2x8 = &nt_2x8_avx2;
    k.axpy = &axpy_avx2;
    k.axpy_out = &axpy_out_avx2;
    k.add = &add_avx2;
    k.sub = &sub_avx2;
    k.mul = &mul_avx2;
    k.scale = &scale_avx2;
    k.clamp = &clamp_avx2;
    k.relu = &relu_avx2;
    k.sign = &sign_avx2;
    k.relu_bwd = &relu_bwd_avx2;
    k.relu_mask = &relu_mask_avx2;
    k.tail_bwd = &tail_bwd_avx2;
    k.pack_row = &pack_row8_avx2;
    k.lower_strip = &lower_strip8_avx2;
    k.lower_strip_int8 = &lower_strip16_int8_avx2;
    k.fake_quant = &fake_quant_avx2;
    k.maxpool2x2 = &maxpool2x2_avx2;
    k.int8_4x16 = &int8_4x16_avx2;
    k.quant_i8 = &quant_i8_avx2;
    k.requant_col_bias = &requant_col_bias_avx2;
    k.requant_row_bias = &requant_row_bias_avx2;
    return k;
  }();
  return &t;
}

}  // namespace con::tensor::kernels

#else  // non-x86 build: the probe never offers AVX2.

namespace con::tensor::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace con::tensor::kernels

#endif
