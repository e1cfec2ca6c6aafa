// Oracle tests for convolutions lowered panel by panel from the NCHW input
// (tensor/gemm.h conv2d_nn / conv2d_nt / conv2d_tn, tensor/gemm_int8.h
// conv2d_int8).
//
// Every product must equal, bit for bit, the path it replaced: the
// materialised column matrix (tensor::im2col_batch) through matmul_nn /
// matmul_nt plus the NCHW scatter, the gathered output gradient through
// matmul_tn plus col2im_batch, or compress::integer_exec's int64 oracle
// for the int8 conv. The geometry grid covers stride 1 and 2,
// padding 0..2, output planes that are not a multiple of a strip, and
// batches whose panels straddle images; weights sit below and above the
// sparse-axpy density threshold and activations are zero-heavy so the skip
// lists matter. Each comparison runs on the scalar table and every SIMD
// table the host executes, in-process on a 4-thread pool and again in a
// fresh process whose pool has one thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "compress/fixed_point.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/packed_weights.h"
#include "nn/reshape.h"
#include "nn/sequential.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "oracles/conv_lowering.h"
#include "oracles/integer_exec.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace con {
namespace {

using tensor::Conv2dGeometry;
using tensor::Index;
using tensor::Tensor;
namespace gemm = tensor::gemm;
namespace kernels = tensor::kernels;
using testing::simd_isas;

// The in-process runs use a 4-thread pool whatever the host has (the
// threaded panel code must run threaded); set before any pool use.
const bool kForcePool = [] {
  util::ThreadPool::set_global_threads(4);
  return true;
}();

bool same_bits(const float* a, const float* b, Index n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// Uniform values in [-1, 1) with `zero_share` of them exactly 0.
Tensor sparse_tensor(tensor::Shape shape, std::uint64_t seed,
                     double zero_share) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (float& v : t.flat()) {
    const bool zero = rng.uniform() < zero_share;
    const float u = rng.uniform_f(-1.0f, 1.0f);
    v = zero ? 0.0f : u;
  }
  return t;
}

struct GeomCase {
  Index c, h, k, stride, pad;
};

// Stride 1 and 2 × padding 0, 1, 2 over 14×14 and 7×7 inputs (output
// planes 12, 14, 16, 6, 7, 8 and 5, 7, 9, 3, 4, 5 wide), plus a 5×5 kernel
// and a 2×2 kernel over two channels, whose depth-8 weight gradient is a
// single column strip (one dW task, fewer than the 4-thread pool). Then
// stride-1 outputs 8, 16, 24 and 32 wide, whose strips lie inside one
// output row (the strip writers' contiguous path; 16 and 32 are whole int8
// pair strips too): 24-wide planes (576 columns) start kNC = 256-column
// panels mid-row and mid-image, and depths 27 and 9 are odd (the int8
// u = 1 padding lane), 18 and 8 even.
std::vector<GeomCase> geometry_grid() {
  std::vector<GeomCase> out;
  for (Index h : {Index(14), Index(7)}) {
    for (Index stride : {Index(1), Index(2)}) {
      for (Index pad : {Index(0), Index(1), Index(2)}) {
        out.push_back({3, h, 3, stride, pad});
      }
    }
  }
  out.push_back({2, 14, 5, 1, 2});
  out.push_back({2, 14, 2, 1, 0});
  out.push_back({3, 8, 3, 1, 1});
  out.push_back({2, 10, 3, 1, 0});
  out.push_back({2, 17, 2, 1, 0});
  out.push_back({2, 16, 3, 1, 1});
  out.push_back({1, 24, 3, 1, 1});
  out.push_back({3, 32, 3, 1, 1});
  return out;
}

Conv2dGeometry geometry(const GeomCase& c) {
  return Conv2dGeometry{.in_channels = c.c, .in_h = c.h, .in_w = c.h,
                        .kernel_h = c.k, .kernel_w = c.k, .stride = c.stride,
                        .padding = c.pad};
}

std::string describe(const GeomCase& c, Index batch,
                     const std::string& what) {
  return what +
         " isa=" + kernels::isa_name(kernels::active_isa()) +
         " batch=" + std::to_string(batch) + " c=" + std::to_string(c.c) +
         " h=" + std::to_string(c.h) +
         " k=" + std::to_string(c.k) + " stride=" + std::to_string(c.stride) +
         " pad=" + std::to_string(c.pad);
}

// The replaced forward: one im2col matrix, one GEMM, then the NCHW scatter
// with the bias.
Tensor columns_forward(const gemm::PackedMatrix& pa, const Tensor& x,
                       const Conv2dGeometry& g, const Tensor& bias) {
  const Index n = x.dim(0);
  const Index m = pa.rows;
  const Index plane = g.out_h() * g.out_w();
  const Index total = n * plane;
  const Tensor out = gemm::matmul_nn(pa, tensor::im2col_batch(x, g));
  Tensor y({n, m, g.out_h(), g.out_w()});
  for (Index i = 0; i < n; ++i) {
    for (Index r = 0; r < m; ++r) {
      for (Index p = 0; p < plane; ++p) {
        y[(i * m + r) * plane + p] = out[r * total + i * plane + p] + bias[r];
      }
    }
  }
  return y;
}

// The NCHW output gradient [N, M, oh, ow] gathered into the [M, N·oh·ow]
// layout of the forward GEMM output — the matrix the backward products
// replaced by reading NCHW directly.
Tensor gather_nchw(const Tensor& go) {
  const Index n = go.dim(0), m = go.dim(1), plane = go.dim(2) * go.dim(3);
  Tensor out({m, n * plane});
  for (Index i = 0; i < n; ++i) {
    for (Index r = 0; r < m; ++r) {
      for (Index p = 0; p < plane; ++p) {
        out[r * n * plane + i * plane + p] = go[(i * m + r) * plane + p];
      }
    }
  }
  return out;
}

// Float forward, weight gradient and input gradient over the whole grid on
// the active table; returns the first mismatch, or "" when every case is
// identical. Five and nine output channels leave a partial strip in both
// the float (4-row) and the NT (2-row) left operands; the output gradient
// is zero-heavy with whole images of zeros.
std::string float_grid_mismatch() {
  for (const GeomCase& gc : geometry_grid()) {
    const Conv2dGeometry g = geometry(gc);
    const Index depth = gc.c * gc.k * gc.k;
    const Index plane = g.out_h() * g.out_w();
    for (Index out_channels : {Index(5), Index(6), Index(9)}) {
      for (Index batch : {Index(1), Index(3), Index(64)}) {
        const Tensor x = sparse_tensor({batch, gc.c, gc.h, gc.h},
                                       100 + batch * 7 + gc.h, 0.6);
        const Tensor bias = sparse_tensor({out_channels}, 200 + depth, 0.0);
        Tensor go = sparse_tensor({batch, out_channels, g.out_h(), g.out_w()},
                                  400 + batch * plane + out_channels, 0.5);
        for (Index i = 1; i < batch; i += 3) {
          std::fill(go.data() + i * out_channels * plane,
                    go.data() + (i + 1) * out_channels * plane, 0.0f);
        }
        const Tensor go_rows = gather_nchw(go);
        const std::string oc = " outC=" + std::to_string(out_channels);
        // Dense weights take the register tiles, 90%-pruned ones the
        // sparse row-axpy (below the 25% density threshold).
        for (double pruned : {0.0, 0.9}) {
          const std::string path = pruned > 0 ? " (axpy)" : " (tiles)";
          const Tensor w = sparse_tensor({out_channels, depth},
                                         300 + depth + batch, pruned);
          const gemm::PackedMatrix pa = gemm::pack_rowmajor(w, gemm::kStripA);
          const Tensor want = columns_forward(pa, x, g, bias);
          Tensor got({batch, out_channels, g.out_h(), g.out_w()}, -7.0f);
          gemm::conv2d_nn(pa, x.data(), batch, g, bias.data(), got.data());
          if (!same_bits(want.data(), got.data(), want.numel())) {
            return describe(gc, batch, "conv2d_nn" + path + oc);
          }
          const gemm::PackedMatrix pt = gemm::pack_colmajor(w, gemm::kStripA);
          const Tensor want_dx = tensor::col2im_batch(
              gemm::matmul_tn(pt, go_rows), batch, g);
          Tensor got_dx(x.shape());
          gemm::conv2d_tn(pt, go.data(), batch, g, got_dx.data());
          if (!same_bits(want_dx.data(), got_dx.data(), want_dx.numel())) {
            return describe(gc, batch, "conv2d_tn" + path + oc);
          }
        }
        // dW accumulates into a gradient that already holds values.
        Tensor want_dw = sparse_tensor({out_channels, depth}, 500 + depth, 0.3);
        Tensor got_dw = want_dw;
        tensor::add_inplace(
            want_dw, gemm::matmul_nt(go_rows, tensor::im2col_batch(x, g)));
        gemm::conv2d_nt(go.data(), out_channels, x.data(), batch, g,
                        got_dw.data());
        if (!same_bits(want_dw.data(), got_dw.data(), want_dw.numel())) {
          return describe(gc, batch, "conv2d_nt" + oc);
        }
      }
    }
  }
  return "";
}

nn::Int8FormatKey key_for(const compress::FixedPointFormat& f) {
  return nn::Int8FormatKey{.weight_total_bits = f.total_bits,
                           .weight_integer_bits = f.integer_bits,
                           .act_total_bits = f.total_bits,
                           .act_integer_bits = f.integer_bits};
}

// Conv2d::forward_int8 against the integer_exec oracle over the grid, dense
// and 90%-pruned weights, on the active table.
std::string int8_grid_mismatch() {
  const compress::FixedPointFormat fmt =
      compress::FixedPointFormat::paper_format(8);
  for (const GeomCase& gc : geometry_grid()) {
    const Conv2dGeometry g = geometry(gc);
    for (double pruned : {0.0, 0.9}) {
      util::Rng rng(500 + gc.h);
      nn::Conv2d conv(nn::Conv2dSpec{.in_channels = gc.c, .out_channels = 6,
                                     .kernel = gc.k, .stride = gc.stride,
                                     .padding = gc.pad},
                      rng, "conv");
      util::Rng prune_rng(600 + gc.k);
      conv.weight().edit([&](Tensor& w, Tensor&) {
        for (float& v : w.flat()) {
          if (prune_rng.uniform() < pruned) v = 0.0f;
        }
      });
      conv.weight().set_transform(
          std::make_shared<compress::FixedPointWeightTransform>(fmt));
      const Tensor wq =
          compress::fixed_point_quantize(conv.weight().value(), fmt);
      const compress::IntegerConv2d oracle =
          compress::lower_conv2d(wq, conv.bias().value(), fmt, fmt);
      for (Index batch : {Index(1), Index(3), Index(64)}) {
        // Zero-heavy codes: the pair skip lists elide most of the input.
        const Tensor x = sparse_tensor({batch, gc.c, gc.h, gc.h},
                                       700 + batch + gc.stride, 0.6);
        const Tensor want = compress::integer_conv2d_forward(oracle, x, g);
        const Tensor got = conv.forward_int8(x, key_for(fmt));
        if (want.shape() != got.shape() ||
            !same_bits(want.data(), got.data(), want.numel())) {
          return describe(gc, batch, pruned > 0 ? "forward_int8 (pruned)"
                                                : "forward_int8");
        }
      }
    }
  }
  return "";
}

// Runs `grid` on every table; "" when all agree.
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
// whose global pool has one thread (the in-process pool has four and cannot
// be resized): exits 0 when every case matched, else prints the case.
template <typename Grid>
void expect_single_thread_match(Grid grid) {
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
}

TEST(ConvKernelOracle, LowerRowsMatchesIm2colBatchBlocks) {
  for (const GeomCase& gc : geometry_grid()) {
    const Conv2dGeometry g = geometry(gc);
    const Index batch = 3;
    const Tensor x = sparse_tensor({batch, gc.c, gc.h, gc.h}, 800 + gc.h, 0.3);
    const Tensor cols = tensor::im2col_batch(x, g);
    const Index depth = cols.dim(0), total = cols.dim(1);
    std::vector<std::int8_t> codes(static_cast<std::size_t>(x.numel()));
    for (Index i = 0; i < x.numel(); ++i) {
      codes[static_cast<std::size_t>(i)] =
          static_cast<std::int8_t>(static_cast<int>(x[i] * 100.0f));
    }
    // Row blocks starting mid-channel and single rows; column segments
    // that start and end mid-row, cross image boundaries, or cover all.
    const Index blocks[][2] = {{0, depth}, {1, depth}, {depth - 1, depth},
                               {gc.k, 2 * gc.k + 1}};
    const Index segs[][2] = {{0, total}, {1, total - 2}, {total / 3, 17},
                             {total - 5, 5}, {g.out_w() - 1, 2}};
    for (const auto& bk : blocks) {
      for (const auto& sg : segs) {
        const Index k0 = bk[0], rows = bk[1] - bk[0];
        const Index j0 = sg[0], jn = sg[1], ld = jn + 3;
        std::vector<float> got(static_cast<std::size_t>(rows * ld), -9.0f);
        tensor::lower_rows(x.data(), batch, g, k0, k0 + rows, j0, jn,
                           got.data(), ld);
        std::vector<std::int8_t> got8(got.size(), 99);
        tensor::lower_rows(codes.data(), batch, g, k0, k0 + rows, j0, jn,
                           got8.data(), ld);
        for (Index r = 0; r < rows; ++r) {
          const float* want = cols.data() + (k0 + r) * total + j0;
          ASSERT_TRUE(same_bits(want, got.data() + r * ld, jn))
              << describe(gc, batch, "lower_rows<float>") << " k=" << k0 + r
              << " j0=" << j0 << " jn=" << jn;
          EXPECT_EQ(got[static_cast<std::size_t>(r * ld + jn)], -9.0f)
              << "wrote past the segment";
          for (Index j = 0; j < jn; ++j) {
            ASSERT_EQ(static_cast<int>(static_cast<std::int8_t>(
                          static_cast<int>(want[j] * 100.0f))),
                      static_cast<int>(got8[static_cast<std::size_t>(
                          r * ld + j)]))
                << describe(gc, batch, "lower_rows<int8>") << " k=" << k0 + r
                << " j=" << j0 + j;
          }
        }
      }
    }
  }
  const Conv2dGeometry g = geometry({1, 5, 3, 1, 0});
  std::vector<float> x(25, 1.0f), row(9);
  EXPECT_THROW(tensor::lower_rows(x.data(), 1, g, 0, 1, 7, 4, row.data(), 4),
               std::invalid_argument);
  EXPECT_THROW(tensor::lower_rows(x.data(), 1, g, 0, 10, 0, 1, row.data(), 1),
               std::invalid_argument);
}

// The ConvStrip (dispatch.h) of the `cl` columns [j, j+cl) of the column
// matrix im2col_batch would build, lane by lane from the definition;
// returns the input offset of the strip's first image.
Index strip_for(const Conv2dGeometry& g, Index j, Index cl, Index lanes,
                kernels::ConvStrip& cs) {
  const Index ow = g.out_w(), plane = g.out_h() * ow;
  const Index image_size = g.in_channels * g.in_h * g.in_w;
  cs = kernels::ConvStrip{};
  cs.channels = g.in_channels;
  cs.in_h = g.in_h;
  cs.in_w = g.in_w;
  cs.kernel_h = g.kernel_h;
  cs.kernel_w = g.kernel_w;
  const Index first = j / plane;
  for (Index t = 0; t < lanes; ++t) {
    const Index col = j + t, p = col % plane;
    cs.image[t] = static_cast<std::int32_t>((col / plane - first) * image_size);
    cs.iy0[t] = t < cl ? static_cast<std::int32_t>(p / ow * g.stride -
                                                   g.padding)
                       : kernels::ConvStrip::kNoRow;
    cs.ix0[t] = static_cast<std::int32_t>(p % ow * g.stride - g.padding);
  }
  cs.row = g.stride == 1 && cl == lanes && j % ow + lanes <= ow;
  return first * image_size;
}

// Every table's strip writers against the packed materialised column
// matrix, byte for byte with exact zero flags: the aligned strips of a
// 3-image batch (the partial tail strip included) and strips starting
// mid-row, at the last column of a row and two columns before an image
// boundary. The input holds -0 (a zero column value, flag clear) and NaN
// (nonzero, flag set).
TEST(ConvKernelOracle, StripWritersMatchPackedColumnMatrix) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GeomCase& gc : geometry_grid()) {
    const Conv2dGeometry g = geometry(gc);
    const Index batch = 3;
    Tensor x = sparse_tensor({batch, gc.c, gc.h, gc.h}, 1300 + gc.h, 0.5);
    x[1] = -0.0f;
    x[x.numel() / 2] = nan;
    std::vector<std::int8_t> codes(static_cast<std::size_t>(x.numel()));
    for (Index i = 0; i < x.numel(); ++i) {
      codes[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
          std::isnan(x[i]) ? 5 : static_cast<int>(x[i] * 100.0f));
    }
    const Tensor cols = tensor::im2col_batch(x, g);
    const Index depth = cols.dim(0), total = cols.dim(1);
    const Index plane = g.out_h() * g.out_w();
    for (Index lanes : {Index(8), Index(16)}) {
      std::vector<Index> starts;
      for (Index j = 0; j < total; j += lanes) starts.push_back(j);
      for (Index j : {Index(1), g.out_w() - 1, plane - 2}) {
        if (j >= 0 && j < total) starts.push_back(j);
      }
      for (Index j : starts) {
        const Index cl = std::min(lanes, total - j);
        kernels::ConvStrip cs;
        const Index off = strip_for(g, j, cl, lanes, cs);
        // The strip's columns as a [depth, cl] matrix, and its transpose
        // of codes for the int8 packer.
        Tensor sub({depth, cl});
        std::vector<std::int8_t> sub8(static_cast<std::size_t>(cl * depth));
        for (Index k = 0; k < depth; ++k) {
          for (Index t = 0; t < cl; ++t) {
            sub[k * cl + t] = cols[k * total + j + t];
            const float v = cols[k * total + j + t];
            sub8[static_cast<std::size_t>(t * depth + k)] =
                static_cast<std::int8_t>(
                    std::isnan(v) ? 5 : static_cast<int>(v * 100.0f));
          }
        }
        const std::string where = describe(gc, batch, "strip") +
                                  " lanes=" + std::to_string(lanes) +
                                  " j=" + std::to_string(j);
        for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
          kernels::ScopedIsa scoped(isa);
          const kernels::KernelTable& kt = kernels::active();
          if (lanes == 8) {
            const gemm::PackedMatrix want = gemm::pack_colmajor(sub, 8);
            std::vector<float> got(static_cast<std::size_t>(depth * 8), -7.0f);
            std::vector<char> flags(static_cast<std::size_t>(depth), 7);
            kt.lower_strip(got.data(), flags.data(), x.data() + off, cs);
            ASSERT_TRUE(same_bits(want.data.data(), got.data(), depth * 8))
                << where;
            std::vector<char> want_flags(flags.size(), 0);
            for (std::int64_t u = 0; u < want.nnz_ptr[1]; ++u) {
              want_flags[static_cast<std::size_t>(want.nnz_k[u])] = 1;
            }
            ASSERT_EQ(want_flags, flags) << where;
          } else {
            const gemm::PackedInt8B want =
                gemm::pack_int8_b(sub8.data(), cl, depth);
            std::vector<std::int8_t> got(
                static_cast<std::size_t>(want.kpairs * 32), 99);
            std::vector<char> flags(static_cast<std::size_t>(want.kpairs), 7);
            kt.lower_strip_int8(got.data(), flags.data(), codes.data() + off,
                                cs);
            ASSERT_EQ(0, std::memcmp(want.data.data(), got.data(), got.size()))
                << where;
            std::vector<char> want_flags(flags.size(), 0);
            for (std::int64_t u = 0; u < want.nnz_ptr[1]; ++u) {
              want_flags[static_cast<std::size_t>(want.nnz_p[u])] = 1;
            }
            ASSERT_EQ(want_flags, flags) << where;
          }
        }
      }
    }
  }
}

TEST(ConvKernelOracle, FloatForwardAndWeightGradMatchColumnsGemm) {
  const std::string bad = on_every_isa(float_grid_mismatch);
  EXPECT_EQ(bad, "");
}

TEST(ConvKernelOracle, FloatForwardAndWeightGradMatchAtOneThread) {
  expect_single_thread_match(float_grid_mismatch);
}

TEST(ConvKernelOracle, Int8ForwardMatchesIntegerExec) {
  const std::string bad = on_every_isa(int8_grid_mismatch);
  EXPECT_EQ(bad, "");
}

TEST(ConvKernelOracle, Int8ForwardMatchesIntegerExecAtOneThread) {
  expect_single_thread_match(int8_grid_mismatch);
}

TEST(ConvKernelOracle, ConvCallsKeepOneCountPerCall) {
  const Conv2dGeometry g = geometry({3, 14, 3, 1, 1});
  const Index batch = 8;  // 8·196 columns: seven panels
  const Tensor x = sparse_tensor({batch, 3, 14, 14}, 900, 0.5);
  const Tensor w = sparse_tensor({5, 27}, 901, 0.0);
  const Tensor bias({5});
  const gemm::PackedMatrix pa = gemm::pack_rowmajor(w, gemm::kStripA);
  Tensor y({batch, 5, 14, 14});
  const std::string isa = kernels::isa_name(kernels::active_isa());
  obs::Counter& blocked = obs::counter("gemm.dispatch.blocked." + isa);
  obs::Counter& flops = obs::counter("gemm.flops");
  obs::Counter& bytes = obs::counter("im2col.bytes");
  const std::uint64_t b0 = blocked.value(), f0 = flops.value(),
                      y0 = bytes.value();
  gemm::conv2d_nn(pa, x.data(), batch, g, bias.data(), y.data());
  EXPECT_EQ(blocked.value(), b0 + 1);
  EXPECT_EQ(flops.value(), f0 + 2u * 5u * 27u * (8u * 196u));
  EXPECT_EQ(bytes.value(), y0 + 27u * (8u * 196u) * sizeof(float));
}

// A convolution over the materialised column matrix: im2col columns kept
// on the tape (in `aux`), one GEMM forward, the weight gradient as
// matmul_nt against the stored columns.
class ColumnsConv2d : public nn::Layer {
 public:
  explicit ColumnsConv2d(nn::Conv2d& src)
      : spec_(src.spec()), weight_(src.weight()), bias_(src.bias()) {}

  Tensor forward(const Tensor& x, bool /*train*/,
                 nn::TapeSlot& slot) const override {
    const Index n = x.dim(0);
    slot.geom = Conv2dGeometry{.in_channels = spec_.in_channels,
                               .in_h = x.dim(2), .in_w = x.dim(3),
                               .kernel_h = spec_.kernel,
                               .kernel_w = spec_.kernel,
                               .stride = spec_.stride,
                               .padding = spec_.padding};
    slot.batch = n;
    slot.packed = cache_.get(weight_, [](nn::PackedWeights& pw) {
      pw.fwd = gemm::pack_rowmajor(pw.effective, gemm::kStripA);
      pw.bwd = gemm::pack_colmajor(pw.effective, gemm::kStripA);
    });
    slot.aux = tensor::im2col_batch(x, slot.geom);
    const Tensor out = gemm::matmul_nn(slot.packed->fwd, slot.aux);
    const Index m = spec_.out_channels;
    const Index plane = slot.geom.out_h() * slot.geom.out_w();
    const Index total = n * plane;
    Tensor y({n, m, slot.geom.out_h(), slot.geom.out_w()});
    for (Index i = 0; i < n; ++i) {
      for (Index c = 0; c < m; ++c) {
        for (Index p = 0; p < plane; ++p) {
          y[(i * m + c) * plane + p] =
              out[c * total + i * plane + p] + bias_.value()[c];
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out, nn::TapeSlot& slot) const override {
    const Index n = slot.batch;
    const Index m = spec_.out_channels;
    const Index plane = slot.geom.out_h() * slot.geom.out_w();
    const Index total = n * plane;
    Tensor go({m, total});
    for (Index i = 0; i < n; ++i) {
      for (Index c = 0; c < m; ++c) {
        for (Index p = 0; p < plane; ++p) {
          go[c * total + i * plane + p] = grad_out[(i * m + c) * plane + p];
        }
      }
    }
    if (slot.accumulate_param_grads) {
      tensor::add_inplace(weight_.grad, gemm::matmul_nt(go, slot.aux));
      for (Index c = 0; c < m; ++c) {
        double acc = 0.0;
        for (Index p = 0; p < total; ++p) acc += go[c * total + p];
        bias_.grad[c] += static_cast<float>(acc);
      }
    }
    const Tensor dcols = gemm::matmul_tn(slot.packed->bwd, go);
    return tensor::col2im_batch(dcols, n, slot.geom);
  }

  std::vector<nn::Parameter*> parameters() override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "columns_conv"; }
  // The twin network is built once and never cloned.
  std::unique_ptr<nn::Layer> clone() const override { return nullptr; }

 private:
  nn::Conv2dSpec spec_;
  nn::Parameter weight_;
  nn::Parameter bias_;
  nn::PackedWeightsCache cache_;
};

nn::Sequential small_net(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m("conv-net");
  m.emplace<nn::Conv2d>(nn::Conv2dSpec{.in_channels = 2, .out_channels = 5,
                                       .kernel = 3, .stride = 1, .padding = 1},
                        rng, "conv1");
  m.emplace<nn::ReLU>("relu1");
  m.emplace<nn::Conv2d>(nn::Conv2dSpec{.in_channels = 5, .out_channels = 4,
                                       .kernel = 3, .stride = 2, .padding = 1},
                        rng, "conv2");
  m.emplace<nn::ReLU>("relu2");
  m.emplace<nn::Flatten>("flatten");
  m.emplace<nn::Linear>(4 * 5 * 5, 3, rng, "fc");
  return m;
}

// The same network with its convolutions replaced by ColumnsConv2d copies.
nn::Sequential columns_twin(nn::Sequential& net) {
  nn::Sequential twin("columns-twin");
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&net.layer(i))) {
      twin.add(std::make_unique<ColumnsConv2d>(*conv));
    } else {
      twin.add(net.layer(i).clone());
    }
  }
  return twin;
}

TEST(ConvKernelOracle, SgdStepsMatchColumnsReferenceBitwise) {
  for (kernels::Isa isa : simd_isas({kernels::Isa::kScalar})) {
    kernels::ScopedIsa scoped(isa);
    nn::Sequential net = small_net(31);
    nn::Sequential twin = columns_twin(net);
    const Tensor x = sparse_tensor({6, 2, 9, 9}, 1000, 0.3);
    const std::vector<int> labels = {0, 1, 2, 0, 1, 2};
    nn::Sgd opt_net(net.parameters(), nn::SgdConfig{.learning_rate = 0.05f});
    nn::Sgd opt_twin(twin.parameters(), nn::SgdConfig{.learning_rate = 0.05f});
    nn::ForwardTape tape_net, tape_twin;
    for (int step = 0; step < 4; ++step) {
      for (auto [model, tape, opt] :
           {std::tuple{&net, &tape_net, &opt_net},
            std::tuple{&twin, &tape_twin, &opt_twin}}) {
        const Tensor logits = model->forward(x, /*train=*/true, *tape);
        const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
        model->zero_grad();
        (void)model->backward(loss.grad_logits, *tape);
        opt->step();
      }
    }
    const auto pn = net.parameters();
    const auto pt = twin.parameters();
    ASSERT_EQ(pn.size(), pt.size());
    for (std::size_t i = 0; i < pn.size(); ++i) {
      EXPECT_TRUE(same_bits(pn[i]->value().data(), pt[i]->value().data(),
                            pn[i]->value().numel()))
          << kernels::isa_name(isa) << " parameter " << pn[i]->name;
    }
  }
}

TEST(ConvKernelOracle, ReusedTapeAllocatesOnlyTheOutput) {
  util::Rng rng(5);
  nn::Conv2d conv(nn::Conv2dSpec{.in_channels = 3, .out_channels = 8,
                                 .kernel = 3, .padding = 1},
                  rng, "conv");
  const Tensor x = sparse_tensor({16, 3, 12, 12}, 1100, 0.4);
  for (bool accumulate : {true, false}) {
    nn::ForwardTape tape(accumulate);
    nn::TapeSlot& slot = tape.slot(0);
    const Tensor warm = conv.forward(x, /*train=*/accumulate, slot);
    const Tensor grad_out = sparse_tensor(warm.shape(), 1101, 0.8);
    (void)conv.backward(grad_out, slot);  // warm the worker scratch
    const std::uint64_t before = Tensor::buffer_allocations();
    const Tensor y = conv.forward(x, /*train=*/accumulate, slot);
    EXPECT_EQ(Tensor::buffer_allocations() - before, 1u)
        << "forward, accumulate=" << accumulate;
    // Only a weight-gradient backward needs the input kept.
    EXPECT_EQ(slot.input.empty(), !accumulate);
    // Backward allocates dX alone: no gathered gradient, no dW temporary,
    // no column gradient.
    const std::uint64_t before_bwd = Tensor::buffer_allocations();
    const Tensor dx = conv.backward(grad_out, slot);
    EXPECT_EQ(Tensor::buffer_allocations() - before_bwd, 1u)
        << "backward, accumulate=" << accumulate;
  }
}

TEST(ConvKernelOracle, WeightGradientWithoutKeptInputThrows) {
  util::Rng rng(6);
  nn::Conv2d conv(nn::Conv2dSpec{.in_channels = 1, .out_channels = 2,
                                 .kernel = 3},
                  rng, "conv");
  const Tensor x = sparse_tensor({2, 1, 6, 6}, 1200, 0.0);
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  const Tensor y = conv.forward(x, false, tape.slot(0));
  tape.set_accumulate_param_grads(true);
  EXPECT_THROW((void)conv.backward(Tensor(y.shape(), 1.0f), tape.slot(0)),
               std::logic_error);
}

}  // namespace
}  // namespace con
