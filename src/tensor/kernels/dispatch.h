// Runtime-dispatched SIMD micro-kernel table for the GEMM / sparse /
// elementwise / fixed-point fake-quant / max-pooling hot paths.
//
// The blocked GEMM layer (tensor/gemm.cpp) and the elementwise ops
// (tensor/ops.cpp, including tensor::fake_quant behind every activation
// and weight fake-quantiser) call through one process-wide `KernelTable`
// of plain function pointers. The table is resolved exactly once, at first
// use: a cpuid probe says whether the host runs AVX2+FMA, and
// `CON_KERNEL=scalar|avx2` in the environment or the `--kernel` flag every
// bench/example accepts (bench_common.h) picks the table. The AVX2 table
// lives in its own translation unit (kernel_avx2.cpp) compiled with
// per-TU ISA flags, so the default build still runs on any host: the
// vector TU is only *called* after the runtime probe says the instructions
// exist.
//
// Precision contract (DESIGN.md §5, "SIMD precision contract"):
//  - `scalar` is the default and the bit-exact oracle: its entries are the
//    exact loops the pre-dispatch code ran, so default-build results are
//    byte-identical to releases before this layer existed.
//  - The AVX2 float-accumulating register-tile kernel (`nn_4x8`) uses
//    FMA and two interleaved partial sums per output element, so its
//    results may differ from scalar within the documented error bound
//    |simd − scalar| ≤ 2·γ_K·Σ|a·b|, γ_K = K·2⁻²⁴ (tests/test_kernels.cpp
//    asserts it). Opting in (CON_KERNEL=avx2) is a statement that you
//    accept those bits; artifact-store derivations record the active ISA
//    whenever it is not scalar, so SIMD-computed artifacts never alias
//    scalar ones (core/artifacts.cpp).
//  - Everything else is bit-identical on every ISA: the double-accumulating
//    NT kernel (float products are exact in double, so fused and unfused
//    rounding agree), the sparse row-axpy, the elementwise entries
//    (vectorized with separate multiply and add — never contracted), and
//    the fixed-point fake-quant entry (`fake_quant`: the scalar oracle
//    divides by the power-of-two step, the AVX2 table multiplies by its
//    exact reciprocal — both the correctly rounded value of one real
//    number — then round in the current mode like std::nearbyint).
//  - The int8 entries (`int8_4x16`, `quant_i8`, `requant_*`) are integer
//    arithmetic end to end, so every ISA is bit-identical to the scalar
//    oracle by construction — no tolerance, no opt-in (DESIGN.md §5,
//    "Integer precision contract"). The only float steps are exact:
//    power-of-two scaling and int→float conversion of values ≤ 2⁷.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.h"

namespace con::tensor::kernels {

enum class Isa : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumIsas = 2;

// Register-tile GEMM micro-kernel: one MR×NR accumulator tile over packed
// strips (ap[k*MR + i], bp[k*NR + j]), full depth per output element in
// ascending k. `klist == nullptr` runs the dense loop; otherwise only the
// listed k are visited (every elided term has a zero factor — see gemm.h).
// Writes the mv×nv valid corner of the tile to c (leading dimension ldc).
using MicroKernelFn = void (*)(Index depth, const float* ap, const float* bp,
                               const std::int32_t* klist, Index nk, float* c,
                               Index ldc, Index mv, Index nv);

// Double-accumulating NT micro-kernel over the same strip layout (MR = 2,
// NR = 8): adds the visited terms, k ascending, into the caller's 2×8
// tile acc[i*8 + j]. The tile carries across calls, so a product whose
// depth is streamed in chunks (ap/bp advanced to each chunk) accumulates
// exactly like one call over the whole depth; the caller zeroes the tile
// first and rounds it to float once at the end.
using NtMicroKernelFn = void (*)(Index depth, const float* ap, const float* bp,
                                 const std::int32_t* klist, Index nk,
                                 double* acc);

// dst[i] += a * src[i]  (the sparse row-axpy inner sweep and attack-step
// updates; never FMA-contracted, bit-identical on every ISA).
using AxpyFn = void (*)(float* dst, const float* src, float a, Index n);
// dst[i] = a[i] + s * b[i]
using AxpyOutFn = void (*)(float* dst, const float* a, const float* b, float s,
                           Index n);
// dst[i] (+|-|*)= src[i]
using BinFn = void (*)(float* dst, const float* src, Index n);
// dst[i] *= s
using ScaleFn = void (*)(float* dst, float s, Index n);
// dst[i] = min(hi, max(lo, dst[i])) with std::min/std::max tie semantics
using ClampFn = void (*)(float* dst, float lo, float hi, Index n);
// dst[i] = src[i] > 0 ? src[i] : 0   /   dst[i] = sign(src[i]) ∈ {-1,0,1}
using UnaryFn = void (*)(float* dst, const float* src, Index n);
// grad[i] = input[i] > 0 ? grad[i] : 0 — the gradient passes exactly where
// relu passed the value, so a NaN input (relu maps it to 0) blocks it too.
using ReluBwdFn = void (*)(float* grad, const float* input, Index n);
// The ReLU step of a fused Conv2d/Linear output tail (tensor::apply_tail):
// x[i] = relu(x[i]), and mask[i] = -1 on the lanes relu_bwd zeroes (not
// x[i] > 0, NaN included), else gate[i] (the preceding fake-quant's STE
// gate; may alias mask), or 1 when gate is null.
using ReluMaskFn = void (*)(float* x, float* mask, const float* gate, Index n);
// Int8 register-tile GEMM micro-kernel with int32 accumulators: one 4×16
// tile over pair-of-k interleaved panels (tensor/gemm_int8.h). The left
// operand stores int8-range codes widened to int16 so a k-pair of one row
// is a single 32-bit broadcast: ap[(p*4 + i)*2 + u] = code(row i, k 2p+u).
// The right operand stays int8: bp[(p*16 + t)*2 + u] = code(col t, k 2p+u).
// `klist == nullptr` runs the dense loop over all `kpairs`; otherwise only
// the listed pairs are visited (every elided pair is all-zero — see
// gemm_int8.h). Writes the mv×nv valid corner of the int32 tile to c.
// Codes are int8-range, so |acc| ≤ K·2¹⁴ — callers must bound K (and the
// bias folded in afterwards) so the int32 accumulator cannot overflow.
using Int8MicroKernelFn = void (*)(Index kpairs, const std::int16_t* ap,
                                   const std::int8_t* bp,
                                   const std::int32_t* klist, Index nk,
                                   std::int32_t* c, Index ldc, Index mv,
                                   Index nv);

// Quantise float values to int8 fixed-point codes:
// dst[i] = nearbyint(clamp(src[i], lo, hi) * inv_step) with round-half-even
// (the default FP environment). `lo`/`hi` are the format's representable
// value bounds (lo_code·step / hi_code·step — exactly representable), and
// inv_step is a power of two, so the product is exact and every ISA rounds
// the same real number: bit-identical to the integer-exec oracle's
// quantize_to_code (tests/oracles/integer_exec.cpp) for finite inputs.
using QuantI8Fn = void (*)(std::int8_t* dst, const float* src, float inv_step,
                           float lo, float hi, Index n);

// Fixed-point fake-quantisation with its straight-through-estimator gate:
// q = nearbyint(src[i] / step) * step, saturated to [lo, hi];
// gate[i] = 1 where q was inside [lo, hi] (NaN included), 0 where it
// saturated. `gate` may be null. `step` and `inv_step` must be exact
// reciprocal powers of two (tensor::fake_quant checks this), which is what
// makes the SIMD multiply-by-inv_step bit-identical to the scalar divide.
using FakeQuantFn = void (*)(float* dst, float* gate, const float* src,
                             float step, float inv_step, float lo, float hi,
                             Index n);

// Requantise an int32 accumulator matrix [rows, cols] to float values on
// the activation grid: y = sat(rshift_rne(acc + bias, shift), lo, hi) *
// scale, where rshift_rne is the round-half-even arithmetic right shift of
// the compress::integer_exec oracle (tests/oracles/) and `scale` is the
// activation step (power of two, so the final int→float multiply is
// exact). The two entries differ only in bias indexing: per-column (Linear
// layout, acc [N, out]) or per-row (Conv layout, acc [outC, N·P]).
using RequantFn = void (*)(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols);

// Scatters one k-row of a right-operand panel into its 8-wide strip
// columns: strip s receives src[s*8 + t] in lane t of column k (panel
// layout (s*depth + k)*8 + t, gemm.h), and flags[s*depth + k] records
// whether any copied lane is nonzero (NaN counts as nonzero, matching the
// scalar `!= 0.0f` test). A pure byte shuffle — bit-identical everywhere;
// only the copy/test width is per-ISA.
using PackRowFn = void (*)(float* panel, const float* src, Index jn,
                           Index depth, Index k, char* flags);

// One right-operand strip of a convolution's column matrix (gemm.h
// conv2d_nn, gemm_int8.h conv2d_int8): up to 16 consecutive columns
// (output pixels) over the full depth C·kh·kw. Lane t reads the input
// image at offset image[t] from the entry's `x`, under the window whose
// top-left input pixel is (iy0[t], ix0[t]) = (oy·stride − padding,
// ox·stride − padding); lanes past the matrix's last column have iy0 =
// kNoRow, so they read padding throughout. `row` says every lane is a
// column of one output row and stride is 1: the lanes share image[0] and
// iy0[0], and ix0[t] = ix0[0] + t, so each strip column is one contiguous
// input run.
struct ConvStrip {
  static constexpr std::int32_t kNoRow = -(1 << 24);
  Index channels = 0, in_h = 0, in_w = 0, kernel_h = 0, kernel_w = 0;
  bool row = false;
  std::int32_t image[16] = {}, iy0[16] = {}, ix0[16] = {};
};

// Writes a float ConvStrip of 8 lanes straight from the NCHW input, k
// ascending over the whole depth: strip[k·8 + t] = the input element under
// lane t's window at row k = (c·kh + y)·kw + x, +0 for padding, and
// flags[k] records whether any lane is nonzero (NaN counts, as in
// pack_row). A pure copy — bit-identical everywhere.
using LowerStripFn = void (*)(float* strip, char* flags, const float* x,
                              const ConvStrip& cs);
// The int8 twin over 16 lanes in the pair layout of int8_4x16's right
// operand: strip[(p·16 + t)·2 + u] = code at row 2p + u (code 0 for
// padding and for odd depth's u = 1 lane of the last pair), flags[p] =
// whether the 32-byte block has a nonzero code.
using LowerStripInt8Fn = void (*)(std::int8_t* strip, char* flags,
                                  const std::int8_t* x, const ConvStrip& cs);

// 2×2, stride-2 max pooling over `planes` contiguous h×w planes
// (oh = h/2, ow = w/2 windows per plane): out[(pl·oh + py)·ow + px] is the
// window's maximum under strict `>` starting from -inf, visiting (0,0),
// (0,1), (1,0), (1,1) — ties keep the earlier element, NaN is never taken
// — and idx[...] the flat input index (pl·h·w + …) of the element taken, or
// of the window's first element when none exceeds -inf. `idx` may be null
// (an inference pass that never routes a gradient): then only `out` is
// written. The SIMD entries replace the branches with ordered
// compare+select, so output and index bits are identical on every ISA.
using MaxPool2x2Fn = void (*)(float* out, Index* idx, const float* in,
                              Index planes, Index h, Index w);

struct KernelTable {
  Isa isa = Isa::kScalar;
  // Below this M·N·K product matmul falls back to the pre-blocking scalar
  // loops (pack/dispatch overhead dominates). Per-ISA: a faster micro-kernel
  // amortises packing earlier, so the crossover drops (gemm.cpp).
  Index small_gemm_flops = 0;
  MicroKernelFn nn_4x8 = nullptr;  // float accumulators, MR = gemm::kStripA
  NtMicroKernelFn nt_2x8 = nullptr;  // double tile, MR = gemm::kStripANt
  AxpyFn axpy = nullptr;
  AxpyOutFn axpy_out = nullptr;
  BinFn add = nullptr;
  BinFn sub = nullptr;
  BinFn mul = nullptr;
  ScaleFn scale = nullptr;
  ClampFn clamp = nullptr;
  UnaryFn relu = nullptr;
  UnaryFn sign = nullptr;
  ReluBwdFn relu_bwd = nullptr;
  ReluMaskFn relu_mask = nullptr;
  // A fused tail's backward: grad[i] = mask[i] < 0 ? +0 : grad[i]·mask[i]
  // (mask from fake_quant's gate and relu_mask). The mask is 0 or 1 where
  // it multiplies, so every ISA is exact and equal to running relu_bwd and
  // the gate multiply one after the other.
  ReluBwdFn tail_bwd = nullptr;
  PackRowFn pack_row = nullptr;
  LowerStripFn lower_strip = nullptr;
  LowerStripInt8Fn lower_strip_int8 = nullptr;
  FakeQuantFn fake_quant = nullptr;
  MaxPool2x2Fn maxpool2x2 = nullptr;
  // Deployed-integer inference entries (bit-identical on every ISA).
  Int8MicroKernelFn int8_4x16 = nullptr;
  QuantI8Fn quant_i8 = nullptr;
  RequantFn requant_col_bias = nullptr;
  RequantFn requant_row_bias = nullptr;
};

// The active table. First call probes the host and reads $CON_KERNEL; the
// lookup afterwards is one relaxed atomic load (safe inside hot loops —
// never allocates). Requesting an unsupported ISA via the environment logs
// a warning and falls back to scalar instead of failing: a generic binary
// must keep working on any host (graceful-fallback contract, CI `generic`
// job).
const KernelTable& active();
Isa active_isa();
const char* isa_name(Isa isa);

// True when `isa` is compiled into this binary AND the host executes it.
bool isa_supported(Isa isa);

// Forces the table. Returns the ISA actually activated: `isa` when
// supported, otherwise scalar (with a warning). Not thread-safe against
// concurrent kernel calls — call at startup or in tests.
Isa set_isa(Isa isa);

// Parses "scalar" / "avx2"; throws std::invalid_argument on
// anything else (the --kernel flag path: typos fail loudly).
Isa parse_isa(const std::string& name);

// Env-string resolution used at first probe, exposed for tests: returns the
// ISA CON_KERNEL=`value` would activate (nullptr means unset → scalar).
// Unknown names and unsupported ISAs resolve to scalar.
Isa resolve_env_request(const char* value);

// RAII forced-ISA scope for tests and benches; restores on destruction.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : prev_(active_isa()) { set_isa(isa); }
  ~ScopedIsa() { set_isa(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa prev_;
};

}  // namespace con::tensor::kernels
