// Blocked, packed, multi-threaded GEMM kernels.
//
// Every iterative attack in the study funnels through three matrix
// products (forward NN/NT, backward TN/NT), so their per-call constant is
// the whole reproduction's wall clock. This layer replaces the scalar
// i-k-j loops in ops.cpp with cache-blocked kernels while keeping results
// byte-identical to them (and therefore identical for any --threads N):
//
//  - Operands are packed into register-tile strips: the register-tiled
//    dimension is split into strips of kStripA (left operand, 4 rows;
//    2 for the double-accumulating NT kernel) or kStripB (right operand,
//    8 rows), stored strip-major as data[(s*depth + k)*strip + t] with
//    zero padding past the edge, so the micro-kernel reads both operands
//    at unit stride.
//  - The micro-kernel holds a strip×strip accumulator tile in registers
//    and runs the full depth (k) range per output element: one accumulator
//    per element, k ascending — the exact operation sequence of the scalar
//    loops, hence bit-identical output. NN/TN accumulate in float, NT in
//    double (the repo's precision contract, DESIGN.md §5).
//  - Work is threaded over kNC-column panels of C via util::parallel_for,
//    in one panel loop templated on the register tile (this float tile,
//    the double NT tile, and the int8 tile of gemm_int8.h, whose products
//    run on the same loop). Panels write disjoint columns and every element
//    is computed by exactly one task, so results do not depend on the
//    thread count. Convolutions
//    lower the right-operand blocks they need straight from the NCHW input
//    and write NCHW from the panel epilogue (conv2d_nn below); their
//    backward products read the NCHW output gradient directly. The weight
//    gradient (conv2d_nt) runs one task per 8-column strip of dW and
//    streams its depth in image-aligned chunks, the double tiles carried
//    across chunks by the NT kernel; the input gradient (conv2d_tn)
//    runs one task per image and scatters it with col2im. No im2col matrix,
//    no column-gradient matrix and no [outC, N·P] temporary.
//  - Packing records, per strip, the ascending list of k indices whose
//    strip column contains any non-zero. The micro-kernel iterates the
//    shorter of the two operands' lists; skipped terms have a zero factor
//    and contribute ±0.0f, which never changes a finite accumulation, so
//    the zero-skip of the scalar loops (pruned weight panels) is preserved
//    bit-for-bit. Kernels assume finite inputs.
//  - A left operand below ~25% density (a DNS-pruned layer) switches to
//    per-row axpy sweeps over its skip lists — the scalar loops' own
//    strategy, which beats register tiles when most tile rows are zero —
//    parallelized over C rows (a convolution sweeps each panel's lowered
//    rows instead, parallel over panels). Same bits on every path.
//
// `PackedMatrix` is exposed so weight panels can be packed once and reused
// across the thousands of forward/backward calls an attack makes against
// frozen weights (see nn/packed_weights.h).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::tensor::gemm {

// Register-tile strip widths. kStripA covers the left (M) operand of the
// float kernels, kStripANt the left operand of the double-accumulating NT
// kernel (half as many rows so the 2×8 double tile stays in registers),
// kStripB the right (N) operand of all kernels.
inline constexpr Index kStripA = 4;
inline constexpr Index kStripANt = 2;
inline constexpr Index kStripB = 8;
// Columns of C per cache panel and per parallel task. A multiple of
// kStripB so strips never straddle panels.
inline constexpr Index kNC = 256;

// One GEMM operand packed into register-tile strips. `rows` is the
// register-tiled dimension (M for a left operand, N for a right operand),
// `depth` the shared accumulation dimension K.
struct PackedMatrix {
  Index rows = 0;
  Index depth = 0;
  Index strip = 0;  // rows per strip; the last strip is zero-padded
  // Strip-major storage: data[(s*depth + k)*strip + t] = M[s*strip + t][k]
  // for t < min(strip, rows - s*strip), zero beyond the edge.
  std::vector<float> data;
  // Zero-skip index: ascending k with at least one non-zero lane, per
  // strip: nnz_k[nnz_ptr[s] .. nnz_ptr[s+1]).
  std::vector<std::int32_t> nnz_k;
  std::vector<std::int64_t> nnz_ptr;
  // Non-zero element count. Heavily pruned left operands (≲25% density)
  // switch from register tiles to per-row axpy sweeps over the skip lists,
  // which is how the scalar loops exploited pruning; same bits either way.
  Index nnz = 0;

  Index num_strips() const {
    return rows == 0 ? 0 : (rows + strip - 1) / strip;
  }
};

// Pack a logical [rows, depth] operand stored row-major (m.dim(0) = rows).
[[nodiscard]] PackedMatrix pack_rowmajor(const Tensor& m, Index strip);
// Pack a logical [rows, depth] operand stored as its transpose
// (m.dim(0) = depth, m.dim(1) = rows).
[[nodiscard]] PackedMatrix pack_colmajor(const Tensor& m, Index strip);

// C[M,N] = A[M,K] · B[K,N]. Packed forms: A = pack_rowmajor(a, kStripA),
// B = pack_colmajor(b, kStripB). Float accumulators.
[[nodiscard]] Tensor matmul_nn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nn(const PackedMatrix& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nn(const Tensor& a, const PackedMatrix& b);

// C[M,N] = A[K,M]ᵀ · B[K,N]. Packed A = pack_colmajor(a, kStripA).
// Float accumulators.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_tn(const PackedMatrix& a, const Tensor& b);

// C[M,N] = A[M,K] · B[N,K]ᵀ. Packed B = pack_rowmajor(b, kStripB).
// Double accumulators (dot-product-shaped reduction; DESIGN.md §5).
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const PackedMatrix& b);

// Convolution products over the column matrix B = im2col_batch(x, g)
// ([C·kh·kw, N·oh·ow]; im2col_batch and col2im_batch, which build and
// scatter it, are test oracles in tests/oracles/conv_lowering.h) without
// materialising it or any other column matrix: the forward lowers each
// panel's columns straight from the NCHW input into its register strips
// (the kernel table's strip writer, one strip at a time over the whole
// depth), the weight gradient lowers the blocks of B it needs (lower_rows
// in ops.h) and packs them as it goes, and the output gradient is read as
// NCHW, through the same panel driver as the matmuls above, so strips,
// skip lists, k order and therefore bits are those of the matmul over the
// materialised matrices, on every ISA and thread count.
//
// conv2d_nn: y[N, M, oh, ow] = (A · B)[M, N·oh·ow] scattered to NCHW plus
// bias[M], A = the layer's weights packed pack_rowmajor(w, kStripA), `x`
// batch_size images of g's shape. Same dispatch as matmul_nn(A, B): A
// below the sparse-axpy density runs row-axpy sweeps over each panel's
// rows lowered with lower_rows, everything else the register tiles over
// the strips the strip writer lowers; the panel epilogue
// adds the bias, applies `tail` (apply_tail in ops.h) to each run while it
// is hot and writes the NCHW runs of its C tile. `y` must hold N·M·oh·ow
// floats; every one is written, and so is every mask element when the tail
// is not empty (`mask` has y's layout; throws if it is null then; unused
// for an empty tail). Throws std::invalid_argument for an input image of
// 2²⁷ elements or more (the strip writers' int32 lane offsets).
// Counters: one gemm.flops and one gemm.dispatch.* count per call,
// im2col.bytes for the lowered elements.
void conv2d_nn(const PackedMatrix& a, const float* x, Index batch_size,
               const Conv2dGeometry& g, const float* bias, float* y,
               const OutputTail& tail = {}, float* mask = nullptr);
// conv2d_nt: the weight gradient dw[M, C·kh·kw] += go · Bᵀ, where
// `grad_out` is the NCHW output gradient [N, M, oh, ow] read as go[M,
// N·oh·ow] (no gather) and M = out_channels. One task per 8-column strip
// of dw, over every go row strip; each task streams the depth N·oh·ow in
// image-aligned chunks, lowering only its strip's rows of B for each
// chunk, and carries its double tiles across chunks, rounding them to
// float once and adding them into dw. Bit-identical to
// add_inplace(dw, matmul_nt(go, im2col_batch(x, g))) for any thread count.
// Counters as for conv2d_nn (im2col.bytes counts B once).
void conv2d_nt(const float* grad_out, Index out_channels, const float* x,
               Index batch_size, const Conv2dGeometry& g, float* dw);
// conv2d_tn: the input gradient dx[N, C, H, W] += col2im(Aᵀ · go), A = the
// layer's weights packed pack_colmajor(w, kStripA) (rows C·kh·kw, depth M)
// and go the NCHW `grad_out` as above. One task per image computes its
// [C·kh·kw, oh·ow] block of Aᵀ·go into the worker's tile — on the batch's
// global 8-column strip grid, so the straddling strips are computed as in
// matmul_tn — and scatter-adds it into its image with col2im_add (ascending
// row k). Bit-identical to col2im_batch(matmul_tn(A, go), N, g) added to
// dx (zero it for the plain gradient); same dispatch as matmul_tn.
void conv2d_tn(const PackedMatrix& a, const float* grad_out, Index batch_size,
               const Conv2dGeometry& g, float* dx);

// The pre-blocking scalar loops: the correctness oracle for
// tests/test_gemm.cpp and the before/after baseline in bench_micro_ops,
// and also a production path — matmul_nn / _tn / _nt compute every product
// of at most the kernel table's small_gemm_flops M·N·K with them. The
// blocked kernels above reproduce their output bit-for-bit.
[[nodiscard]] Tensor reference_nn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor reference_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor reference_nt(const Tensor& a, const Tensor& b);

}  // namespace con::tensor::gemm
