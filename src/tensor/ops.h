// Tensor operators used by the NN framework, attacks and analysis code.
//
// All operators are free functions over `Tensor` values; in-place variants
// take the destination first. Shapes are validated and mismatches throw,
// so layer-plumbing bugs surface at the call site.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace con::tensor {

// ---- elementwise ----------------------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard product
[[nodiscard]] Tensor scale(const Tensor& a, float s);
[[nodiscard]] Tensor add_scaled(const Tensor& a, const Tensor& b, float s);  // a + s*b

void add_inplace(Tensor& dst, const Tensor& src);
void sub_inplace(Tensor& dst, const Tensor& src);
void mul_inplace(Tensor& dst, const Tensor& src);
void scale_inplace(Tensor& dst, float s);
void add_scaled_inplace(Tensor& dst, const Tensor& src, float s);

// dst = a + s*b, reusing dst's storage when its capacity allows. dst must
// not alias a or b. Element expression matches add_scaled(a, b, s) exactly,
// so iterative loops can swap in the fused form without changing a bit.
void add_scaled_into(Tensor& dst, const Tensor& a, const Tensor& b, float s);

// Elementwise sign(): -1, 0 or +1.
[[nodiscard]] Tensor sign(const Tensor& a);
// Elementwise clamp to [lo, hi].
[[nodiscard]] Tensor clamp(const Tensor& a, float lo, float hi);
void clamp_inplace(Tensor& a, float lo, float hi);

// Elementwise max(a, 0); relu(-0) == +0 on every kernel ISA.
[[nodiscard]] Tensor relu(const Tensor& a);
void relu_inplace(Tensor& a);
// grad[i] = 0 wherever input[i] <= 0 (the ReLU adjoint).
void relu_backward_inplace(Tensor& grad, const Tensor& input);
// Fixed-point fake-quantisation: dst[i] = nearbyint(src[i] / step) * step
// saturated to [lo, hi]. When `gate` is non-null it receives the
// straight-through-estimator gate: 0 where the value saturated, 1 elsewhere
// (NaN passes through with gate 1). dst and gate must have src's shape; dst
// may be src. `step` must be a power of two with a finite reciprocal
// (throws std::invalid_argument otherwise) — that is what makes every
// kernel ISA bit-identical to the scalar loop.
void fake_quant(Tensor& dst, Tensor* gate, const Tensor& src, float step,
                float lo, float hi);

// The elementwise layers a Conv2d or Linear applies to its output in its
// epilogue (nn::Sequential's fused groups, DESIGN.md §5): an optional
// fake_quant onto the grid (step, lo, hi), then an optional ReLU. `step`
// is a power of two with a finite reciprocal, as fake_quant requires;
// whoever builds a tail checks that.
struct OutputTail {
  bool fake_quant = false;
  float step = 0.0f, lo = 0.0f, hi = 0.0f;
  bool relu = false;

  bool empty() const { return !fake_quant && !relu; }
};
// Applies `tail` to x[0, n) in place, through the kernel table's
// fake_quant and relu_mask (relu's arithmetic plus the mask) entries, and
// writes its backward mask to mask[0, n): 1 where the gradient passes, 0
// where the fake-quant saturated, -1 where the ReLU zeroed the lane. Does
// nothing for an empty tail.
void apply_tail(const OutputTail& tail, float* x, float* mask, Index n);
// A tail's backward in one pass: grad[i] = mask[i] < 0 ? +0 :
// grad[i]·mask[i] — bit-identical to relu_backward_inplace followed by the
// fake-quant's gate multiply.
void tail_backward_inplace(Tensor& grad, const Tensor& mask);
// m[i,j] += bias[j] for a rank-2 m (layer bias broadcast over rows), then
// `tail` applied row by row with its mask written to `mask` (m's shape;
// unused, and may be null, for an empty tail).
void bias_add_inplace(Tensor& m, const Tensor& bias,
                      const OutputTail& tail = {}, float* mask = nullptr);
// acc[j] += sum_i m[i,j], accumulating row-at-a-time in ascending row
// order (the bias-gradient reduction).
void column_sums_add_inplace(Tensor& acc, const Tensor& m);

// ---- reductions -----------------------------------------------------------
[[nodiscard]] float sum(const Tensor& a);
[[nodiscard]] float mean(const Tensor& a);
[[nodiscard]] float min_value(const Tensor& a);
[[nodiscard]] float max_value(const Tensor& a);
[[nodiscard]] float l2_norm(const Tensor& a);
[[nodiscard]] float linf_norm(const Tensor& a);
// Fraction of exactly-zero elements (used for sparsity accounting).
[[nodiscard]] double zero_fraction(const Tensor& a);

// Index of the maximum element of a rank-1 tensor or of row `row` of a
// rank-2 tensor.
[[nodiscard]] Index argmax(const Tensor& a);
[[nodiscard]] Index argmax_row(const Tensor& a, Index row);

// ---- linear algebra -------------------------------------------------------
// Matrix products live in tensor/gemm.h (gemm::matmul_nn, _tn, _nt).

// ---- convolution support ---------------------------------------------------
// A [C,H,W] input under a kh×kw kernel, standard stride/padding semantics;
// its (never materialised) column matrix is [C*kh*kw, out_h*out_w].
struct Conv2dGeometry {
  Index in_channels = 0;
  Index in_h = 0;
  Index in_w = 0;
  Index kernel_h = 0;
  Index kernel_w = 0;
  Index stride = 1;
  Index padding = 0;
  Index out_h() const { return (in_h + 2 * padding - kernel_h) / stride + 1; }
  Index out_w() const { return (in_w + 2 * padding - kernel_w) / stride + 1; }
};

// Scatter-adds one image's column block — [C*kh*kw, out_h*out_w], rows `ld`
// floats apart — into its CHW gradient `image`, row by row in ascending
// row order: the adjoint of im2col, so every image element receives the
// same terms in the same order (bit-identical on every kernel ISA; the
// contiguous runs go through the table's unfused add entry). gemm.h
// conv2d_tn scatters each image's input gradient with it.
void col2im_add(const float* columns, Index ld, const Conv2dGeometry& g,
                float* image);

// Lowers a block of the batch's column matrix [C*kh*kw, N*out_h*out_w]
// (image i's columns at [i*out_h*out_w, (i+1)*out_h*out_w)), straight
// from the NCHW input and without materialising the matrix:
// dst[(k - k0)·ld + (j - j0)] = columns[k, j] for rows k in [k0, k1) and
// columns j in [j0, j0 + jn), where `batch` holds `batch_size` images of
// g's shape. Padding positions write T{0}; stride and padding are resolved
// in place. The GEMM layers lower each depth chunk of the weight
// gradient's columns (gemm.h conv2d_nt) and each panel of a sparse-axpy
// forward (gemm.h conv2d_nn below the density threshold) with this; the
// register-tile forwards write their strips with the kernel table's strip
// writers instead. Instantiated for float and std::int8_t codes; throws
// std::invalid_argument outside the matrix.
template <typename T>
void lower_rows(const T* batch, Index batch_size, const Conv2dGeometry& g,
                Index k0, Index k1, Index j0, Index jn, T* dst, Index ld);

// The column count batch_size·out_h·out_w of a convolution product over
// `batch_size` images of g's shape, after checking that the output size is
// positive and that `depth` (the weight operand's K) is C·kh·kw; throws
// std::invalid_argument prefixed with `op` otherwise.
[[nodiscard]] Index conv_columns(const Conv2dGeometry& g, Index batch_size,
                                 Index depth, const char* op);

// Counts `elements` lowered column-matrix elements in the run manifests'
// lowering counters: "im2col.bytes" (4 bytes each) for float, and
// "im2col.int8.bytes" (1 byte each) for std::int8_t codes. Every
// panel-lowering product counts what it lowers.
template <typename T>
void count_lowered(Index elements);

// ---- batched slicing -------------------------------------------------------
// Extract sample `n` of a batch tensor [N, ...] as a tensor of shape [...].
[[nodiscard]] Tensor slice_batch(const Tensor& batch, Index n);
// Write `sample` into position `n` of `batch`.
void set_batch(Tensor& batch, Index n, const Tensor& sample);
// Stack K same-shape tensors into [K, ...].
[[nodiscard]] Tensor stack(const std::vector<Tensor>& samples);

// ---- batch gather / scatter / compaction -----------------------------------
// Row-range and index-set operations over the leading (batch) dimension.
// These are the primitives behind the active-set attack loops and the
// view-based attack chunking: chunks read their input rows and write their
// result rows directly, with no intermediate chunk tensors.

// Copy rows [lo, hi) of `batch` into a fresh [hi-lo, ...] tensor.
[[nodiscard]] Tensor copy_rows(const Tensor& batch, Index lo, Index hi);
// Write `src` ([M, ...], same trailing dims as `batch`) into rows
// [lo, lo+M) of `batch`.
void write_rows(Tensor& batch, Index lo, const Tensor& src);
// Gather `batch` row rows[j] into row j of a fresh [rows.size(), ...]
// tensor. Indices may repeat and appear in any order.
[[nodiscard]] Tensor gather_rows(const Tensor& batch, const std::vector<Index>& rows);
// Stable in-place compaction: `batch` row keep[j] moves to row j and the
// batch dimension shrinks to keep.size(). `keep` must be strictly
// ascending. Storage is retained, so a live set can shrink to nothing
// without a single reallocation.
void compact_rows_inplace(Tensor& batch, const std::vector<Index>& keep);

}  // namespace con::tensor
