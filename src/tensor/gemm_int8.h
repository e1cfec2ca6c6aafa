// Blocked int8 GEMM with int32 accumulators — the deployed-integer
// inference substrate.
//
// The fake-quantisation study path (compress/fixed_point.h) snaps weights
// and activations to a fixed-point grid but still multiplies floats. This
// layer runs the *integer* model the paper's deployment story implies:
// operands are int8 codes, products accumulate in int32, and the result is
// requantised back onto the activation grid with a round-half-even shift —
// bit-identical to the compress::integer_exec int64 oracle
// (tests/oracles/integer_exec.h) whenever the
// int32 accumulator cannot overflow (callers validate K·2¹⁴ + |bias| < 2³¹
// at lowering time, nn/packed_weights.cpp).
//
// Layout: codes are packed pair-of-k interleaved so the SIMD kernels read
// one k-pair per fused multiply-add (AVX2 vpmaddwd):
//  - Left operand (PackedInt8A): MR = 4 row strips, codes widened to int16
//    so one row's k-pair is a single 32-bit broadcast:
//      data[((s·kpairs + p)·4 + i)·2 + u] = code(row s·4+i, k 2p+u)
//  - Right operand (PackedInt8B): NR = 16 row strips, codes stay int8 — a
//    (strip, pair) block is 32 contiguous bytes, one vector load:
//      data[((s·kpairs + p)·16 + t)·2 + u] = code(row s·16+t, k 2p+u)
// Odd depth pads the final pair's u = 1 lane with code 0, which contributes
// exactly nothing to an integer accumulator.
//
// Zero-skip works at pair granularity: packing records, per strip, the
// ascending list of pairs with any non-zero lane, and the micro-kernel
// iterates the shorter of the two operands' lists — every elided pair is
// all-zero on one side, so pruned-and-quantised models keep
// their skip behaviour on the integer path. There is no int8 analogue of
// the float sparse row-axpy: the pair lists already elide pruned work, and
// the int8 tile is cheap enough that a separate sweep kernel never wins.
//
// The products run on tensor/gemm.cpp's one panel driver, the same
// kNC-column panels of C via util::parallel_for as every float product,
// over the int8 tile: each element is computed by exactly one task, so
// results are independent of --threads. Neither product materialises an
// int32 matrix it does not return: the Linear product requantises each
// panel's tile straight into its float output, and convolutions lower each
// panel's columns from the NCHW codes and requantise its tile straight
// into the NCHW output (conv2d_int8).
// Integer arithmetic makes every ISA bit-identical to the scalar oracle, so
// unlike the float kernels there is no SIMD opt-in: results never depend on
// CON_KERNEL either.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::tensor::gemm {

// Register-tile strip widths of the int8 kernel (dispatch.h int8_4x16).
inline constexpr Index kStripAInt8 = 4;
inline constexpr Index kStripBInt8 = 16;

// One pair-interleaved operand: kLanes-row strips of codes stored as T.
template <typename T, Index kLanes>
struct PackedInt8 {
  Index rows = 0;
  Index depth = 0;   // K in codes; odd K zero-pads the final pair
  Index kpairs = 0;  // (depth + 1) / 2
  std::vector<T> data;
  // Pair skip lists: ascending p with any non-zero lane, per strip:
  // nnz_p[nnz_ptr[s] .. nnz_ptr[s+1]).
  std::vector<std::int32_t> nnz_p;
  std::vector<std::int64_t> nnz_ptr;

  Index num_strips() const {
    return rows == 0 ? 0 : (rows + kLanes - 1) / kLanes;
  }
};

// Left operand: int8-range codes widened to int16.
using PackedInt8A = PackedInt8<std::int16_t, kStripAInt8>;
// Right operand: int8 codes.
using PackedInt8B = PackedInt8<std::int8_t, kStripBInt8>;

// Pack a row-major [rows, depth] code matrix (codes[r*depth + k]).
[[nodiscard]] PackedInt8A pack_int8_a(const std::int8_t* codes, Index rows,
                                      Index depth);
[[nodiscard]] PackedInt8B pack_int8_b(const std::int8_t* codes, Index rows,
                                      Index depth);

// C[i,j] (int32) = Σ_k codeA(i,k) · codeB(j,k) over the n = b.rows
// columns, C row-major [a.rows, n]: the Linear orientation (A = activation
// codes, B = cached weight panels, C = [batch, out]). The caller guarantees
// the int32 accumulator cannot overflow (|code| ≤ 2⁷ ⇒ |C| ≤ depth·2¹⁴;
// bias headroom is validated at lowering). Throws std::invalid_argument
// unless a.depth == b.depth.
void matmul_int8(const PackedInt8A& a, const PackedInt8B& b, std::int32_t* c);
// The same product requantised onto the activation grid inside each
// panel's epilogue, with no int32 matrix: y[i,j] = sat(rshift_rne(C[i,j] +
// bias[j], shift), lo, hi) · scale through the table's requant_col_bias,
// y row-major [a.rows, b.rows]. Counters: gemm.dispatch.int8.<isa> and
// requantize.col_bias once per call.
void matmul_int8(const PackedInt8A& a, const PackedInt8B& b,
                 const std::int32_t* bias, int shift, std::int32_t lo,
                 std::int32_t hi, float scale, float* y);

// The Conv orientation, without an im2col matrix: A = the cached weight
// panels [outC, C·kh·kw], B = the code column matrix of `x` (batch_size
// images of g's shape, padding = code 0). Each kNC-column panel task lowers
// its columns straight into kStripBInt8 pair strips, one strip at a time
// over the whole depth (the kernel table's lower_strip_int8), accumulates
// an int32 tile, and
// requantises it into the NCHW output y[N, outC, oh, ow] through the
// table's requant_row_bias, one call per image run:
// y = sat(rshift_rne(acc + bias[c], shift), lo, hi) · scale.
// Strips, pair lists and arithmetic equal packing the materialised matrix,
// so the output is bit-identical to compress::integer_exec's conv for any
// --threads and CON_KERNEL. Throws std::invalid_argument for an input
// image of 2²⁷ codes or more. Counters: gemm.dispatch.int8.<isa> and
// requantize.row_bias once per call, im2col.int8.bytes per lowered code.
void conv2d_int8(const PackedInt8A& a, const std::int8_t* x, Index batch_size,
                 const Conv2dGeometry& g, const std::int32_t* bias, int shift,
                 std::int32_t lo, std::int32_t hi, float scale, float* y);

// Float → int8 codes through the kernel table's quant_i8 entry:
// dst[i] = nearbyint(clamp(src[i], lo, hi) · inv_step), round-half-even.
// Bit-identical to the integer-exec oracle's quantize_to_code for finite
// inputs on every ISA. Counter: requantize.quant_i8.
void quantize_codes(std::int8_t* dst, const float* src, float inv_step,
                    float lo, float hi, Index n);

}  // namespace con::tensor::gemm
