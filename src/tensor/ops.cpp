#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/kernels/dispatch.h"

namespace con::tensor {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " +
                                b.shape().to_string());
  }
}

void check_rank2(const Tensor& a, const char* op) {
  if (a.rank() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank-2, got " +
                                a.shape().to_string());
  }
}

}  // namespace

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  mul_inplace(out, b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

Tensor add_scaled(const Tensor& a, const Tensor& b, float s) {
  Tensor out = a;
  add_scaled_inplace(out, b, s);
  return out;
}

// The elementwise bodies live in the runtime-dispatched kernel table
// (tensor/kernels/dispatch.h). Every table entry keeps multiply and add
// separate — never FMA-contracted — so these ops are bit-identical to the
// original loops on every ISA; only the instruction width changes.

void add_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "add");
  kernels::active().add(dst.data(), src.data(), dst.numel());
}

void sub_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "sub");
  kernels::active().sub(dst.data(), src.data(), dst.numel());
}

void mul_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "mul");
  kernels::active().mul(dst.data(), src.data(), dst.numel());
}

void scale_inplace(Tensor& dst, float s) {
  kernels::active().scale(dst.data(), s, dst.numel());
}

void add_scaled_inplace(Tensor& dst, const Tensor& src, float s) {
  check_same_shape(dst, src, "add_scaled");
  kernels::active().axpy(dst.data(), src.data(), s, dst.numel());
}

void add_scaled_into(Tensor& dst, const Tensor& a, const Tensor& b, float s) {
  check_same_shape(a, b, "add_scaled_into");
  if (dst.shape() != a.shape()) dst.resize(a.shape());
  kernels::active().axpy_out(dst.data(), a.data(), b.data(), s, a.numel());
}

Tensor sign(const Tensor& a) {
  Tensor out(a.shape());
  kernels::active().sign(out.data(), a.data(), a.numel());
  return out;
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  Tensor out = a;
  clamp_inplace(out, lo, hi);
  return out;
}

void clamp_inplace(Tensor& a, float lo, float hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  kernels::active().clamp(a.data(), lo, hi, a.numel());
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  kernels::active().relu(out.data(), a.data(), a.numel());
  return out;
}

void relu_inplace(Tensor& a) {
  // The table's relu entries tolerate dst == src (each lane is read before
  // it is written).
  kernels::active().relu(a.data(), a.data(), a.numel());
}

void relu_backward_inplace(Tensor& grad, const Tensor& input) {
  check_same_shape(grad, input, "relu_backward");
  kernels::active().relu_bwd(grad.data(), input.data(), grad.numel());
}

void fake_quant(Tensor& dst, Tensor* gate, const Tensor& src, float step,
                float lo, float hi) {
  check_same_shape(dst, src, "fake_quant");
  if (gate != nullptr) check_same_shape(*gate, src, "fake_quant gate");
  int exponent = 0;
  const float inv_step = 1.0f / step;
  if (!(step > 0.0f) || std::frexp(step, &exponent) != 0.5f ||
      !std::isfinite(inv_step)) {
    throw std::invalid_argument(
        "fake_quant: step must be a power of two with a finite reciprocal");
  }
  kernels::active().fake_quant(dst.data(),
                               gate == nullptr ? nullptr : gate->data(),
                               src.data(), step, inv_step, lo, hi, src.numel());
}

void apply_tail(const OutputTail& tail, float* x, float* mask, Index n) {
  const kernels::KernelTable& kt = kernels::active();
  if (tail.fake_quant) {
    kt.fake_quant(x, mask, x, tail.step, 1.0f / tail.step, tail.lo, tail.hi,
                  n);
  }
  if (tail.relu) kt.relu_mask(x, mask, tail.fake_quant ? mask : nullptr, n);
}

void tail_backward_inplace(Tensor& grad, const Tensor& mask) {
  check_same_shape(grad, mask, "tail_backward");
  kernels::active().tail_bwd(grad.data(), mask.data(), grad.numel());
}

void bias_add_inplace(Tensor& m, const Tensor& bias, const OutputTail& tail,
                      float* mask) {
  check_rank2(m, "bias_add");
  if (!tail.empty() && mask == nullptr) {
    throw std::invalid_argument("bias_add: a tail needs a mask");
  }
  if (bias.rank() != 1 || bias.dim(0) != m.dim(1)) {
    throw std::invalid_argument("bias_add: bias shape " +
                                bias.shape().to_string() +
                                " does not match columns of " +
                                m.shape().to_string());
  }
  const Index rows = m.dim(0), cols = m.dim(1);
  const kernels::KernelTable& kt = kernels::active();
  for (Index i = 0; i < rows; ++i) {
    kt.add(m.data() + i * cols, bias.data(), cols);
    if (!tail.empty()) {
      apply_tail(tail, m.data() + i * cols, mask + i * cols, cols);
    }
  }
}

void column_sums_add_inplace(Tensor& acc, const Tensor& m) {
  check_rank2(m, "column_sums_add");
  if (acc.rank() != 1 || acc.dim(0) != m.dim(1)) {
    throw std::invalid_argument("column_sums_add: accumulator shape " +
                                acc.shape().to_string() +
                                " does not match columns of " +
                                m.shape().to_string());
  }
  const Index rows = m.dim(0), cols = m.dim(1);
  const kernels::KernelTable& kt = kernels::active();
  // Row-at-a-time accumulation in ascending row order: the exact operation
  // sequence of the original nested loop, so this is bit-identical on every
  // ISA (vector lanes touch disjoint columns).
  for (Index i = 0; i < rows; ++i) {
    kt.add(acc.data(), m.data() + i * cols, cols);
  }
}

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a) {
  // Plain double accumulation (not Kahan): models here have up to ~1.3M
  // weights, and a double accumulator has 29 spare mantissa bits over
  // float, which is ample at that length. Reductions follow the precision
  // contract in DESIGN.md §5: dot-product-shaped reductions accumulate in
  // double, streaming updates stay in float.
  double acc = 0.0;
  for (float v : a.flat()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min of empty tensor");
  return *std::min_element(a.flat().begin(), a.flat().end());
}

float max_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max of empty tensor");
  return *std::max_element(a.flat().begin(), a.flat().end());
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.flat()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float linf_norm(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.flat()) m = std::max(m, std::fabs(v));
  return m;
}

double zero_fraction(const Tensor& a) {
  if (a.numel() == 0) return 0.0;
  Index zeros = 0;
  for (float v : a.flat()) {
    if (v == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(a.numel());
}

Index argmax(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("argmax of empty tensor");
  const float* d = a.data();
  Index best = 0;
  for (Index i = 1; i < a.numel(); ++i) {
    if (d[i] > d[best]) best = i;
  }
  return best;
}

Index argmax_row(const Tensor& a, Index row) {
  check_rank2(a, "argmax_row");
  const Index cols = a.dim(1);
  if (row < 0 || row >= a.dim(0)) {
    throw std::out_of_range("argmax_row: row out of range");
  }
  const float* d = a.data() + row * cols;
  Index best = 0;
  for (Index i = 1; i < cols; ++i) {
    if (d[i] > d[best]) best = i;
  }
  return best;
}

// ---- convolution support ---------------------------------------------------

void col2im_add(const float* src, Index src_ld, const Conv2dGeometry& g,
                float* dst) {
  const Index oh = g.out_h(), ow = g.out_w();
  const bool unit = g.stride == 1;
  const kernels::KernelTable& kt = kernels::active();
  for (Index c = 0; c < g.in_channels; ++c) {
    for (Index kh = 0; kh < g.kernel_h; ++kh) {
      for (Index kw = 0; kw < g.kernel_w; ++kw) {
        const Index row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const float* srow = src + row * src_ld;
        const Index off = kw - g.padding;
        const Index x0 = unit ? std::max<Index>(0, -off) : 0;
        const Index x1 = unit ? std::min<Index>(ow, g.in_w - off) : 0;
        for (Index y = 0; y < oh; ++y) {
          const Index in_y = y * g.stride + kh - g.padding;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* drow = dst + (c * g.in_h + in_y) * g.in_w;
          if (unit) {
            // Contiguous scatter-add over the in-bounds span; the table's
            // add entry is unfused, so every ISA accumulates identically.
            if (x1 > x0) kt.add(drow + x0 + off, srow + y * ow + x0, x1 - x0);
            continue;
          }
          for (Index x = 0; x < ow; ++x) {
            const Index in_x = x * g.stride + kw - g.padding;
            if (in_x >= 0 && in_x < g.in_w) drow[in_x] += srow[y * ow + x];
          }
        }
      }
    }
  }
}

template <typename T>
void lower_rows(const T* batch, Index batch_size, const Conv2dGeometry& g,
                Index k0, Index k1, Index j0, Index jn, T* dst, Index ld) {
  const Index oh = g.out_h(), ow = g.out_w();
  const Index plane = oh * ow;
  if (j0 < 0 || jn < 0 || j0 + jn > batch_size * plane || k0 < 0 ||
      k1 < k0 || k1 > g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("lower_rows: block out of bounds");
  }
  const Index image_size = g.in_channels * g.in_h * g.in_w;
  // Where column j0 sits (image i0, output row y0, column x0), decomposed
  // once; every row then walks the same runs from there.
  const Index i0 = j0 / plane;
  const Index y0 = (j0 % plane) / ow;
  const Index x0 = j0 % ow;
  const Index kk = g.kernel_h * g.kernel_w;
  Index c = k0 / kk, kh = (k0 % kk) / g.kernel_w, kw = k0 % g.kernel_w;
  for (Index k = k0; k < k1; ++k, dst += ld) {
    const Index off = kw - g.padding;
    // With stride 1 a run is a contiguous slice of an input row shifted by
    // `off`; [x_lo, x_hi) is its in-bounds span.
    const Index x_lo = std::max<Index>(0, -off);
    const Index x_hi = std::min<Index>(ow, g.in_w - off);
    const T* channel = batch + i0 * image_size + c * g.in_h * g.in_w;
    Index y = y0, x = x0;
    T* d = dst;
    for (Index left = jn; left > 0;) {
      // One run: output row y of the current image, columns [x, x + len).
      const Index len = std::min(ow - x, left);
      const Index in_y = y * g.stride + kh - g.padding;
      if (in_y < 0 || in_y >= g.in_h) {
        std::fill(d, d + len, T{0});
      } else {
        const T* srow = channel + in_y * g.in_w;
        if (g.stride == 1) {
          const Index a = std::clamp(x_lo, x, x + len);
          const Index b = std::clamp(x_hi, a, x + len);
          std::fill(d, d + (a - x), T{0});
          if (b > a) std::copy(srow + (a + off), srow + (b + off), d + (a - x));
          std::fill(d + (b - x), d + len, T{0});
        } else {
          for (Index t = 0; t < len; ++t) {
            const Index in_x = (x + t) * g.stride + off;
            d[t] = (in_x >= 0 && in_x < g.in_w) ? srow[in_x] : T{0};
          }
        }
      }
      d += len;
      left -= len;
      x = 0;
      if (++y == oh) {
        y = 0;
        channel += image_size;
      }
    }
    if (++kw == g.kernel_w) {
      kw = 0;
      if (++kh == g.kernel_h) {
        kh = 0;
        ++c;
      }
    }
  }
}

template void lower_rows<float>(const float*, Index, const Conv2dGeometry&,
                                Index, Index, Index, Index, float*, Index);
template void lower_rows<std::int8_t>(const std::int8_t*, Index,
                                      const Conv2dGeometry&, Index, Index,
                                      Index, Index, std::int8_t*, Index);

Index conv_columns(const Conv2dGeometry& g, Index batch_size, Index depth,
                   const char* op) {
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0 || batch_size < 0) {
    throw std::invalid_argument(std::string(op) + ": non-positive output size");
  }
  if (depth != g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument(std::string(op) +
                                ": weight depth does not match the geometry");
  }
  return batch_size * oh * ow;
}

template <typename T>
void count_lowered(Index elements) {
  static obs::Counter& bytes =
      obs::counter(sizeof(T) == 1 ? "im2col.int8.bytes" : "im2col.bytes");
  bytes.add(static_cast<std::uint64_t>(elements) * sizeof(T));
}

template void count_lowered<float>(Index);
template void count_lowered<std::int8_t>(Index);

// ---- batched slicing -------------------------------------------------------

Tensor slice_batch(const Tensor& batch, Index n) {
  if (batch.rank() < 1) throw std::invalid_argument("slice_batch: rank 0");
  const Index count = batch.dim(0);
  if (n < 0 || n >= count) {
    throw std::out_of_range("slice_batch: index out of range");
  }
  std::vector<Index> dims(batch.shape().dims().begin() + 1,
                          batch.shape().dims().end());
  Shape sample_shape{std::move(dims)};
  const Index stride = sample_shape.numel();
  Tensor out(sample_shape);
  std::memcpy(out.data(), batch.data() + n * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return out;
}

void set_batch(Tensor& batch, Index n, const Tensor& sample) {
  if (batch.rank() < 1) throw std::invalid_argument("set_batch: rank 0");
  const Index count = batch.dim(0);
  if (n < 0 || n >= count) {
    throw std::out_of_range("set_batch: index out of range");
  }
  const Index stride = batch.numel() / count;
  if (sample.numel() != stride) {
    throw std::invalid_argument("set_batch: sample size mismatch");
  }
  std::memcpy(batch.data() + n * stride, sample.data(),
              static_cast<std::size_t>(stride) * sizeof(float));
}

// ---- batch gather / scatter / compaction -----------------------------------

namespace {

// Batch-row geometry shared by the gather/scatter family: validates that
// `batch` is batched and returns the per-row element count.
Index row_stride(const Tensor& batch, const char* op) {
  if (batch.rank() < 1 || batch.dim(0) == 0) {
    throw std::invalid_argument(std::string(op) + ": empty batch");
  }
  return batch.numel() / batch.dim(0);
}

Shape rows_shape(const Tensor& batch, Index rows) {
  std::vector<Index> dims = batch.shape().dims();
  dims[0] = rows;
  return Shape{std::move(dims)};
}

}  // namespace

Tensor copy_rows(const Tensor& batch, Index lo, Index hi) {
  const Index stride = row_stride(batch, "copy_rows");
  if (lo < 0 || hi > batch.dim(0) || lo > hi) {
    throw std::out_of_range("copy_rows: bad row range");
  }
  Tensor out(rows_shape(batch, hi - lo));
  std::memcpy(out.data(), batch.data() + lo * stride,
              static_cast<std::size_t>((hi - lo) * stride) * sizeof(float));
  return out;
}

void write_rows(Tensor& batch, Index lo, const Tensor& src) {
  const Index stride = row_stride(batch, "write_rows");
  if (src.rank() < 1 || src.numel() != src.dim(0) * stride) {
    throw std::invalid_argument("write_rows: row size mismatch");
  }
  if (lo < 0 || lo + src.dim(0) > batch.dim(0)) {
    throw std::out_of_range("write_rows: bad row range");
  }
  std::memcpy(batch.data() + lo * stride, src.data(),
              static_cast<std::size_t>(src.numel()) * sizeof(float));
}

Tensor gather_rows(const Tensor& batch, const std::vector<Index>& rows) {
  const Index stride = row_stride(batch, "gather_rows");
  Tensor out(rows_shape(batch, static_cast<Index>(rows.size())));
  float* d = out.data();
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const Index r = rows[j];
    if (r < 0 || r >= batch.dim(0)) {
      throw std::out_of_range("gather_rows: row index out of range");
    }
    std::memcpy(d + static_cast<Index>(j) * stride, batch.data() + r * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
  }
  return out;
}

void compact_rows_inplace(Tensor& batch, const std::vector<Index>& keep) {
  const Index stride = row_stride(batch, "compact_rows_inplace");
  float* d = batch.data();
  Index prev = -1;
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const Index r = keep[j];
    if (r <= prev || r >= batch.dim(0)) {
      throw std::invalid_argument(
          "compact_rows_inplace: keep must be ascending and in range");
    }
    prev = r;
    // Ascending keep means the destination row j never overtakes the
    // source row r, so in-place forward moves are safe.
    if (r != static_cast<Index>(j)) {
      std::memmove(d + static_cast<Index>(j) * stride, d + r * stride,
                   static_cast<std::size_t>(stride) * sizeof(float));
    }
  }
  batch.shrink_rows(static_cast<Index>(keep.size()));
}

Tensor stack(const std::vector<Tensor>& samples) {
  if (samples.empty()) throw std::invalid_argument("stack: empty input");
  std::vector<Index> dims;
  dims.push_back(static_cast<Index>(samples.size()));
  for (Index d : samples.front().shape().dims()) dims.push_back(d);
  Tensor out{Shape{std::move(dims)}};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].shape() != samples.front().shape()) {
      throw std::invalid_argument("stack: inconsistent sample shapes");
    }
    set_batch(out, static_cast<Index>(i), samples[i]);
  }
  return out;
}

}  // namespace con::tensor
