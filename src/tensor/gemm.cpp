#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/gemm_int8.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/scratch.h"
#include "util/threadpool.h"

namespace con::tensor::gemm {

namespace {

// Dispatch counters: which kernel path served each matmul call, plus the
// theoretical flop count (2·M·N·K per call, independent of zero-skip).
// References are resolved once; increments are single relaxed RMWs.
void count_gemm(Index m, Index n, Index k) {
  static obs::Counter& flops = obs::counter("gemm.flops");
  flops.add(static_cast<std::uint64_t>(2) * static_cast<std::uint64_t>(m) *
            static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k));
}

// Small-path calls take the pre-blocking scalar loops whatever the active
// kernel table is; blocked and sparse-axpy calls are counted per ISA so
// run manifests show exactly which micro-kernels served a run.
void count_small_dispatch() {
  static obs::Counter& c = obs::counter("gemm.dispatch.small");
  c.add(1);
}

obs::Counter& axpy_counter(kernels::Isa isa) {
  static obs::Counter* by_isa[kernels::kNumIsas] = {
      &obs::counter("gemm.dispatch.sparse_axpy.scalar"),
      &obs::counter("gemm.dispatch.sparse_axpy.avx2")};
  return *by_isa[static_cast<int>(isa)];
}

void check_rank2(const Tensor& t, const char* op) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank-2, got " +
                                t.shape().to_string());
  }
}

void check_inner(Index got, Index want, const char* op) {
  if (got != want) {
    throw std::invalid_argument(std::string(op) + ": inner dims mismatch");
  }
}

// Builds the per-strip ascending skip lists over already-packed storage of
// `ns` strips, each `steps` strip columns of `block` values (one k of a
// float strip, one k-pair of an int8 strip): column q of strip s is listed
// when any of its values is non-zero. Returns the non-zero value count.
template <typename T>
Index build_skip_lists(const T* data, Index ns, Index steps, Index block,
                       std::vector<std::int32_t>& list,
                       std::vector<std::int64_t>& ptr) {
  ptr.assign(1, 0);
  list.clear();
  Index nnz = 0;
  for (Index s = 0; s < ns; ++s) {
    for (Index q = 0; q < steps; ++q) {
      const T* col = data + (s * steps + q) * block;
      Index nz = 0;
      for (Index t = 0; t < block; ++t) nz += (col[t] != T{0});
      if (nz > 0) list.push_back(static_cast<std::int32_t>(q));
      nnz += nz;
    }
    ptr.push_back(static_cast<std::int64_t>(list.size()));
  }
  return nnz;
}

// The register tiles of the panel driver, one policy each: strip widths
// (kMR rows of the left operand, kNR columns of the right), the k-step
// (k values per strip column: 2 in the int8 pair layout), the operand and
// accumulator types, the kernel-table entry and the per-ISA dispatch
// counter. The micro-kernels live in the runtime-dispatched kernel table
// (tensor/kernels/dispatch.h): kernels/kernel_scalar.h holds the bit-exact
// templates, kernel_avx2.cpp the vectorized variants CON_KERNEL selects.
// Packing, panel threading and the zero-skip lists below are
// ISA-independent and feed every table entry the same strips.
struct NnTile {
  using A = float;
  using B = float;
  using C = float;
  static constexpr Index kMR = kStripA, kNR = kStripB, kStep = 1;
  static void run(const kernels::KernelTable& kt, Index steps, const A* ap,
                  const B* bp, const std::int32_t* kl, Index nk, C* c,
                  Index ldc, Index mv, Index nv) {
    kt.nn_4x8(steps, ap, bp, kl, nk, c, ldc, mv, nv);
  }
  static void lower(const kernels::KernelTable& kt, B* strip, char* flags,
                    const B* x, const kernels::ConvStrip& cs) {
    kt.lower_strip(strip, flags, x, cs);
  }
  static obs::Counter& counter(kernels::Isa isa) {
    static obs::Counter* by_isa[kernels::kNumIsas] = {
        &obs::counter("gemm.dispatch.blocked.scalar"),
        &obs::counter("gemm.dispatch.blocked.avx2")};
    return *by_isa[static_cast<int>(isa)];
  }
};

// The double-accumulating NT tile: starts at zero and is rounded to float
// once.
struct NtTile : NnTile {
  static constexpr Index kMR = kStripANt;
  static void run(const kernels::KernelTable& kt, Index steps, const A* ap,
                  const B* bp, const std::int32_t* kl, Index nk, C* c,
                  Index ldc, Index mv, Index nv) {
    double acc[kStripANt * kStripB] = {};
    kt.nt_2x8(steps, ap, bp, kl, nk, acc);
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) {
        c[i * ldc + j] = static_cast<float>(acc[i * kStripB + j]);
      }
    }
  }
};

// int8 codes (the left operand widened to int16) into int32 accumulators.
struct Int8Tile {
  using A = std::int16_t;
  using B = std::int8_t;
  using C = std::int32_t;
  static constexpr Index kMR = kStripAInt8, kNR = kStripBInt8, kStep = 2;
  static void run(const kernels::KernelTable& kt, Index steps, const A* ap,
                  const B* bp, const std::int32_t* kl, Index nk, C* c,
                  Index ldc, Index mv, Index nv) {
    kt.int8_4x16(steps, ap, bp, kl, nk, c, ldc, mv, nv);
  }
  static void lower(const kernels::KernelTable& kt, B* strip, char* flags,
                    const B* x, const kernels::ConvStrip& cs) {
    kt.lower_strip_int8(strip, flags, x, cs);
  }
  // The int8 twin of gemm.dispatch.blocked.*: run manifests of an
  // integer-path run must show these (bench/obs_validate.cpp
  // --expect-integer-path).
  static obs::Counter& counter(kernels::Isa isa) {
    static obs::Counter* by_isa[kernels::kNumIsas] = {
        &obs::counter("gemm.dispatch.int8.scalar"),
        &obs::counter("gemm.dispatch.int8.avx2")};
    return *by_isa[static_cast<int>(isa)];
  }
};

// A packed operand as the tile sweep reads it: strip s starts s strips
// into `data`, and its skip list is list[ptr[s] .. ptr[s+1]).
template <typename T>
struct Strips {
  const T* data;
  const std::int32_t* list;
  const std::int64_t* ptr;
};

// The strips of a packed operand from strip s0 on (a panel of a
// pre-packed right operand starts at s0 = j0 / kNR: kNC is a multiple of
// every kNR, so a panel is a contiguous run of strips).
static_assert(kNC % kStripB == 0 && kNC % kStripBInt8 == 0);
Strips<float> strips(const PackedMatrix& p, Index s0 = 0) {
  return {p.data.data() + s0 * p.depth * p.strip, p.nnz_k.data(),
          p.nnz_ptr.data() + s0};
}
template <typename T, Index kLanes>
Strips<T> strips(const PackedInt8<T, kLanes>& p, Index s0 = 0) {
  return {p.data.data() + s0 * p.kpairs * 2 * kLanes, p.nnz_p.data(),
          p.nnz_ptr.data() + s0};
}

// Per-worker panel scratch for a tile's right-operand and accumulator
// types, reused across panels and calls: the buffers stop allocating (and
// stop paying a full zero-fill) after the first panel on each thread.
// Every size change goes through grow_scratch.
template <typename B, typename C>
struct PanelScratch {
  std::vector<B> data;  // packed B strips
  std::vector<char> flags;
  std::vector<std::int32_t> nnz;
  std::vector<std::int64_t> ptr;
  std::vector<B> lowered;           // conv rows lowered for NT or axpy
  std::vector<C> tile;              // C tile of a panel with an epilogue
  std::vector<double> acc;          // double tiles of a depth-streamed NT task
  std::vector<std::int32_t> alist;  // A skip lists rebased to a depth chunk

  Strips<B> strips() const { return {data.data(), nnz.data(), ptr.data()}; }
};

template <typename B, typename C>
PanelScratch<B, C>& panel_scratch() {
  thread_local PanelScratch<B, C> s;
  return s;
}

// The batch a convolution's right operand is lowered from: B is the
// [C·kh·kw, N·oh·ow] column matrix im2col_batch would build from `x`, but
// only the strips (lower_panel) or blocks (lower_rows) a task needs are
// ever written.
template <typename T>
struct ConvLowering {
  const T* x = nullptr;
  Index batch = 0;
  Conv2dGeometry g;
};

// The right operand of a float product: a pre-packed matrix (cached weight
// panels), raw storage, or a convolution input, the latter two packed
// panel-by-panel inside each task.
struct BSource {
  const PackedMatrix* packed = nullptr;
  const float* raw = nullptr;
  Index ld = 0;         // leading dimension of raw storage
  bool k_major = false;  // true: raw[k*ld + j] ([K,N]); false: raw[j*ld + k]
  // Non-zero: raw is an NCHW batch read as the k-major [K, N·plane] matrix
  // B[k, j] = raw[(j / plane)·ld + k·plane + j % plane] (ld = K·plane, the
  // image stride) — a convolution's output gradient, never gathered.
  Index plane = 0;
  const ConvLowering<float>* conv = nullptr;  // set instead of raw
  // Set by gemm_blocked: the panels run row-axpy sweeps, not tiles.
  bool axpy = false;
};

// The right operand of an int8 product: cached weight panels, or a
// convolution input's codes lowered panel by panel.
struct Int8Source {
  const PackedInt8B* packed = nullptr;
  const ConvLowering<std::int8_t>* conv = nullptr;
};

// A float convolution's epilogue, applied to each task's C tile. Forward
// (`y` set): the tile plus bias[r], written to the NCHW output y[N, M,
// plane] (C column j is image j / plane, pixel j % plane); with `mask`
// set, `tail` is applied to each run and its mask written to the same
// offsets of `mask`. Input gradient (`dx` set): C is the column-matrix
// gradient [C·kh·kw, N·plane], each task is one image, and it scatter-adds
// its image's columns into dx's CHW slice (col2im_add).
struct ConvEpilogue {
  const float* bias = nullptr;
  float* y = nullptr;
  const OutputTail* tail = nullptr;
  float* mask = nullptr;
  Index plane = 0;
  float* dx = nullptr;
  const Conv2dGeometry* g = nullptr;
};

// An int8 product's epilogue: requantise the int32 tile onto the
// activation grid, y = sat(rshift_rne(acc + bias, shift), lo, hi)·scale.
// plane == 0: the Linear layout, row-major y[M, N] with a per-column bias
// (requant_col_bias); else the conv layout, NCHW y[N, M, plane] with a
// per-row bias (requant_row_bias).
struct Requant {
  const std::int32_t* bias = nullptr;
  int shift = 0;
  std::int32_t lo = 0, hi = 0;
  float scale = 0.0f;
  float* y = nullptr;
  Index plane = 0;
};

// Calls f(img, p, off, len) for each run of the columns [j0, j0+jn) that
// lies in one image of `plane` columns: pixels [p, p+len) of image img are
// the columns [off, off+len) counted from j0.
template <typename F>
void image_runs(Index j0, Index jn, Index plane, F&& f) {
  for (Index j = j0; j < j0 + jn;) {
    const Index p = j % plane;
    const Index len = std::min(plane - p, j0 + jn - j);
    f(j / plane, p, j - j0, len);
    j += len;
  }
}

// Row k of an NCHW right operand over columns [j0, j0+jn): a pointer into
// the batch when the columns lie in one image, else the image runs copied
// into `buf`.
const float* nchw_row(const BSource& b, Index k, Index j0, Index jn,
                      float* buf) {
  if (j0 % b.plane + jn <= b.plane) {
    return b.raw + (j0 / b.plane) * b.ld + k * b.plane + j0 % b.plane;
  }
  image_runs(j0, jn, b.plane, [&](Index img, Index p, Index off, Index len) {
    const float* src = b.raw + img * b.ld + k * b.plane + p;
    std::copy(src, src + len, buf + off);
  });
  return buf;
}

// Compacts a panel's zero flags — one per strip column, `ns` strips of
// `steps` columns — into the scratch's ascending per-strip skip lists.
template <typename B, typename C>
void flags_to_lists(PanelScratch<B, C>& sc, Index ns, Index steps) {
  const char* flags = sc.flags.data();
  std::int32_t* nnz = grow_scratch(sc.nnz, ns * steps);
  std::int64_t* ptr = grow_scratch(sc.ptr, ns + 1);
  std::int64_t count = 0;
  ptr[0] = 0;
  for (Index s = 0; s < ns; ++s) {
    const char* fl = flags + s * steps;
    for (Index q = 0; q < steps; ++q) {
      if (fl[q]) nnz[count++] = static_cast<std::int32_t>(q);
    }
    ptr[s + 1] = count;
  }
}

// Packs the columns [j0, j0+jn) of a raw or NCHW k-major right operand, or
// of a raw or conv NT one, over the depth rows [k0, k0+kn) into kStripB
// strips plus skip lists in `sc`, k relative to k0 (only the partial tail
// strip needs re-zeroing — full strip columns are completely overwritten).
// The k-major inner row scatter goes through the kernel table's pack_row
// entry, which fuses zero detection into the copy — a pure byte shuffle,
// bit-identical on every ISA (dispatch.h); the NT branch flags a chunk's
// columns in a second pass over the cache-resident strip. An NT conv
// operand's rows are lowered one strip×chunk block at a time into
// cache-resident scratch just before they are packed, so the strips, flags
// and lists are exactly those of packing im2col_batch's matrix. (A k-major
// conv operand is lowered straight into strips by lower_panel.)
void pack_panel(const kernels::KernelTable& kt, const BSource& b, Index k0,
                Index kn, Index j0, Index jn, PanelScratch<float, float>& sc) {
  const Index ns = (jn + kStripB - 1) / kStripB;
  float* data = grow_scratch(sc.data, ns * kn * kStripB);
  char* flags = grow_scratch(sc.flags, ns * kn);
  std::fill(flags, flags + ns * kn, char{0});
  if (jn % kStripB != 0) {
    float* tail = data + (ns - 1) * kn * kStripB;
    std::fill(tail, tail + kn * kStripB, 0.0f);
  }
  const ConvLowering<float>* conv = b.conv;
  if (b.k_major) {
    // k outer keeps the reads streaming through the big matrix row by row.
    float* row = b.plane != 0 ? grow_scratch(sc.lowered, jn) : nullptr;
    for (Index k = k0; k < k0 + kn; ++k) {
      const float* src = b.plane != 0 ? nchw_row(b, k, j0, jn, row)
                                      : b.raw + k * b.ld + j0;
      kt.pack_row(data, src, jn, kn, k - k0, flags);
    }
  } else {
    // A strip's (up to) kStripB rows are copied kChunk columns at a time,
    // k outer, so the strip is written sequentially while its rows stream
    // in side by side (a conv operand's rows are lowered chunk by chunk).
    constexpr Index kChunk = 1024;
    float* block = conv != nullptr ? grow_scratch(sc.lowered, kStripB * kChunk)
                                   : nullptr;
    for (Index s = 0; s < ns; ++s) {
      const Index r0 = j0 + s * kStripB;
      const Index cl = std::min<Index>(kStripB, jn - s * kStripB);
      float* strip = data + s * kn * kStripB;
      char* fl = flags + s * kn;
      for (Index c0 = 0; c0 < kn; c0 += kChunk) {
        const Index cn = std::min(kChunk, kn - c0);
        const float* src = block;
        Index ld = cn;
        if (conv != nullptr) {
          lower_rows(conv->x, conv->batch, conv->g, r0, r0 + cl, k0 + c0, cn,
                     block, cn);
        } else {
          src = b.raw + r0 * b.ld + k0 + c0;
          ld = b.ld;
        }
        // Row by row into the strip's lanes, then one flag per column: two
        // unit-stride sweeps the compiler vectorises (lanes past `cl` are
        // the zeroed tail).
        float* dst = strip + c0 * kStripB;
        for (Index t = 0; t < cl; ++t) {
          const float* row = src + t * ld;
          for (Index k = 0; k < cn; ++k) dst[k * kStripB + t] = row[k];
        }
        for (Index k = 0; k < cn; ++k) {
          int nz = 0;
          for (Index t = 0; t < kStripB; ++t) {
            nz |= dst[k * kStripB + t] != 0.0f;
          }
          fl[c0 + k] = static_cast<char>(nz);
        }
      }
    }
  }
  flags_to_lists(sc, ns, kn);
}

// The strip writers address a strip's lanes by int32 offsets from its
// first image, and a strip spans at most 16 images.
static_assert(kStripB <= 16 && kStripBInt8 <= 16);
void check_strip_offsets(const Conv2dGeometry& g, const char* op) {
  if (g.in_channels * g.in_h * g.in_w >
      std::numeric_limits<std::int32_t>::max() / 16) {
    throw std::invalid_argument(std::string(op) +
                                ": input image too large to lower");
  }
}

// Calls f(s, x, cs) for each `lanes`-column strip s of the columns
// [j0, j0+jn) of a conv operand's column matrix, with cs its ConvStrip
// (dispatch.h) and x the input pointer cs's image offsets count from (the
// image of the strip's first column). Lanes past column j0+jn read
// padding.
template <typename T, typename F>
void for_each_strip(const ConvLowering<T>& conv, Index j0, Index jn,
                    Index lanes, F&& f) {
  const Conv2dGeometry& g = conv.g;
  const Index oh = g.out_h(), ow = g.out_w();
  const Index image_size = g.in_channels * g.in_h * g.in_w;
  kernels::ConvStrip cs;
  cs.channels = g.in_channels;
  cs.in_h = g.in_h;
  cs.in_w = g.in_w;
  cs.kernel_h = g.kernel_h;
  cs.kernel_w = g.kernel_w;
  // Image, output row and column of the next column to place.
  Index img = j0 / (oh * ow), oy = j0 % (oh * ow) / ow, ox = j0 % ow;
  for (Index s = 0; s * lanes < jn; ++s) {
    const Index cl = std::min(lanes, jn - s * lanes);
    const Index first = img;
    cs.row = g.stride == 1 && cl == lanes && ox + lanes <= ow;
    for (Index t = 0; t < lanes; ++t) {
      if (t >= cl) {
        cs.image[t] = 0;
        cs.iy0[t] = kernels::ConvStrip::kNoRow;
        cs.ix0[t] = static_cast<std::int32_t>(t);
        continue;
      }
      cs.image[t] = static_cast<std::int32_t>((img - first) * image_size);
      cs.iy0[t] = static_cast<std::int32_t>(oy * g.stride - g.padding);
      cs.ix0[t] = static_cast<std::int32_t>(ox * g.stride - g.padding);
      if (++ox == ow) {
        ox = 0;
        if (++oy == oh) {
          oy = 0;
          ++img;
        }
      }
    }
    f(s, conv.x + first * image_size, cs);
  }
}

// Lowers the columns [j0, j0+jn) of a conv operand's column matrix
// straight into the tile's right-operand strips, one strip at a time over
// the whole depth (`steps` strip columns), through the kernel table's
// strip writer, then compacts the zero flags it set into the skip lists.
// Every strip byte is written — past-the-edge lanes as zero — so the
// strips, flags and lists equal packing the materialised matrix
// (pack_colmajor for float, pack_int8_b of its transpose for int8).
template <typename Tile>
void lower_panel(const kernels::KernelTable& kt,
                 const ConvLowering<typename Tile::B>& conv, Index steps,
                 Index j0, Index jn,
                 PanelScratch<typename Tile::B, typename Tile::C>& sc) {
  constexpr Index NR = Tile::kNR;
  const Index ns = (jn + NR - 1) / NR;
  const Index block = steps * Tile::kStep * NR;
  typename Tile::B* data = grow_scratch(sc.data, ns * block);
  char* flags = grow_scratch(sc.flags, ns * steps);
  for_each_strip(conv, j0, jn, NR,
                 [&](Index s, const typename Tile::B* x,
                     const kernels::ConvStrip& cs) {
                   Tile::lower(kt, data + s * block, flags + s * steps, x, cs);
                 });
  flags_to_lists(sc, ns, steps);
}

// Below this density a packed float-accumulating left operand is cheaper
// to multiply as per-row axpy sweeps over its skip lists (the scalar
// loops' own strategy) than as register tiles: the tile pays for every
// live strip column even when three of its four rows are zero there, and
// the right operand no longer needs packing at all.
constexpr Index kSparseAxpyDensityPct = 25;

// One C row of the row-axpy kernel for heavily pruned packed A against
// k-major B (leading dimension ldb, n columns). Identical per-element
// operation sequence to reference_nn: the row accumulates av·B[k,·] in
// ascending k, skipping zero av, as full-row streaming sweeps (the
// prefetch-friendly pattern of the scalar loops). `crow` must start zeroed.
void axpy_row(const kernels::KernelTable& kt, const PackedMatrix& a, Index row,
              const float* b, Index ldb, Index n, float* crow) {
  const Index s = row / a.strip;
  const Index t = row % a.strip;
  const float* strip = a.data.data() + s * a.depth * a.strip;
  const std::int32_t* kl =
      a.nnz_k.data() + a.nnz_ptr[static_cast<std::size_t>(s)];
  const Index nk =
      static_cast<Index>(a.nnz_ptr[static_cast<std::size_t>(s) + 1] -
                         a.nnz_ptr[static_cast<std::size_t>(s)]);
  for (Index u = 0; u < nk; ++u) {
    const Index k = kl[u];
    const float av = strip[k * a.strip + t];
    if (av == 0.0f) continue;
    // The table's axpy entry never fuses multiply and add, so this path
    // stays bit-identical to the scalar loops on every ISA (dispatch.h).
    kt.axpy(crow, b + k * ldb, av, n);
  }
}

bool takes_sparse_axpy(const PackedMatrix& a) {
  return a.nnz * 100 <= a.rows * a.depth * kSparseAxpyDensityPct;
}

// The k-list a tile iterates: the shorter of the A and B strip lists
// (every elided term has a zero factor — for int8 pairs, exactly nothing
// in integer arithmetic — so the result is unchanged), or nullptr — the
// indirection-free dense loop — when that list is the whole depth.
const std::int32_t* tile_klist(const std::int32_t* al, Index ank,
                               const std::int32_t* bl, Index bnk, Index depth,
                               Index& nk) {
  nk = depth;
  if (ank <= bnk) {
    if (ank < depth) {
      nk = ank;
      return al;
    }
  } else if (bnk < depth) {
    nk = bnk;
    return bl;
  }
  return nullptr;
}

// The register-tile sweep of one panel: C columns [j0, j0+jn) (c points at
// column j0, leading dimension ldc) from the m-row A strips and the
// panel's B strips, both `steps` strip columns deep.
template <typename Tile>
void panel_product(const kernels::KernelTable& kt, Strips<typename Tile::A> a,
                   Index m, Strips<typename Tile::B> b, Index steps, Index jn,
                   typename Tile::C* c, Index ldc) {
  constexpr Index MR = Tile::kMR, NR = Tile::kNR;
  const Index nb_strips = (jn + NR - 1) / NR;
  const Index na_strips = (m + MR - 1) / MR;
  // B strip outermost (stays in L1 across the sweep of A strips).
  for (Index sb = 0; sb < nb_strips; ++sb) {
    const Index j = sb * NR;
    const Index nv = std::min(NR, jn - j);
    const auto* bp = b.data + sb * steps * Tile::kStep * NR;
    const std::int64_t bk0 = b.ptr[sb];
    const Index bnk = static_cast<Index>(b.ptr[sb + 1] - bk0);
    for (Index sa = 0; sa < na_strips; ++sa) {
      const Index i = sa * MR;
      const std::int64_t ak0 = a.ptr[sa];
      Index nk = 0;
      const std::int32_t* kl =
          tile_klist(a.list + ak0, static_cast<Index>(a.ptr[sa + 1] - ak0),
                     b.list + bk0, bnk, steps, nk);
      Tile::run(kt, steps, a.data + sa * steps * Tile::kStep * MR, bp, kl, nk,
                c + i * ldc + j, ldc, std::min(MR, m - i), nv);
    }
  }
}

// One float panel: the task owns the columns [o0, o0+on) and computes
// [j0, j0+jn) into cp (leading dimension ldc, cp at column j0). Heavily
// pruned A (b.axpy) sweeps rows over the owned columns' k-major block —
// lowered from a conv input, or one image of an NCHW operand — per
// element the same ascending-k sequence as sweeping whole rows; otherwise
// the register tiles run over the cached panel strips or the panel packed
// here.
template <typename Tile>
void compute_panel(Tile, const kernels::KernelTable& kt, const PackedMatrix& a,
                   const BSource& b, Index o0, Index on, Index j0, Index jn,
                   float* cp, Index ldc, PanelScratch<float, float>& sc) {
  const Index depth = a.depth;
  if (b.axpy) {
    const float* block = nullptr;
    if (b.conv != nullptr) {
      float* lowered = grow_scratch(sc.lowered, depth * on);
      lower_rows(b.conv->x, b.conv->batch, b.conv->g, 0, depth, o0, on,
                 lowered, on);
      block = lowered;
    } else {
      block = b.raw + o0 / b.plane * b.ld;  // one image: [K, plane]
    }
    for (Index r = 0; r < a.rows; ++r) {
      float* crow = cp + r * ldc + (o0 - j0);
      std::fill(crow, crow + on, 0.0f);
      axpy_row(kt, a, r, block, on, on, crow);
    }
    return;
  }
  if (b.conv != nullptr) {
    lower_panel<NnTile>(kt, *b.conv, depth, j0, jn, sc);
  } else if (b.packed == nullptr) {
    pack_panel(kt, b, 0, depth, j0, jn, sc);
  }
  panel_product<Tile>(
      kt, strips(a), a.rows,
      b.packed != nullptr ? strips(*b.packed, j0 / kStripB) : sc.strips(),
      depth, jn, cp, ldc);
}

// One int8 panel: the register tiles over the cached weight panel's strips
// or the conv codes lowered here.
void compute_panel(Int8Tile, const kernels::KernelTable& kt,
                   const PackedInt8A& a, const Int8Source& b, Index, Index,
                   Index j0, Index jn, std::int32_t* cp, Index ldc,
                   PanelScratch<std::int8_t, std::int32_t>& sc) {
  if (b.packed == nullptr) {
    lower_panel<Int8Tile>(kt, *b.conv, a.kpairs, j0, jn, sc);
  }
  panel_product<Int8Tile>(
      kt, strips(a), a.rows,
      b.packed != nullptr ? strips(*b.packed, j0 / kStripBInt8) : sc.strips(),
      a.kpairs, jn, cp, ldc);
}

// Writes a float panel's tile out: the per-image col2im scatter of the
// input gradient, or the NCHW output plus bias and tail, one run per image
// the panel's columns cover.
void write_panel(const kernels::KernelTable&, const ConvEpilogue& e,
                 const float* cp, Index ldc, Index m, Index, Index o0,
                 Index j0, Index jn) {
  if (e.dx != nullptr) {
    const Conv2dGeometry& g = *e.g;
    col2im_add(cp + (o0 - j0), ldc, g,
               e.dx + o0 / e.plane * g.in_channels * g.in_h * g.in_w);
    return;
  }
  image_runs(j0, jn, e.plane, [&](Index img, Index p, Index off, Index len) {
    for (Index r = 0; r < m; ++r) {
      const float* src = cp + r * ldc + off;
      float* dst = e.y + (img * m + r) * e.plane + p;
      const float b = e.bias[r];
      for (Index q = 0; q < len; ++q) dst[q] = src[q] + b;
      if (e.mask != nullptr) {
        apply_tail(*e.tail, dst, e.mask + (dst - e.y), len);
      }
    }
  });
}

// Requantises an int8 panel's tile into the Linear layout's row-major
// [m, n] output or, one run per image, the conv layout's NCHW output.
void write_panel(const kernels::KernelTable& kt, const Requant& e,
                 const std::int32_t* cp, Index ldc, Index m, Index n, Index,
                 Index j0, Index jn) {
  if (e.plane == 0) {
    for (Index r = 0; r < m; ++r) {
      kt.requant_col_bias(e.y + r * n + j0, cp + r * ldc, e.bias + j0,
                          e.shift, e.lo, e.hi, e.scale, 1, jn);
    }
    return;
  }
  image_runs(j0, jn, e.plane, [&](Index img, Index p, Index off, Index len) {
    for (Index r = 0; r < m; ++r) {
      kt.requant_row_bias(e.y + (img * m + r) * e.plane + p, cp + r * ldc + off,
                          e.bias + r, e.shift, e.lo, e.hi, e.scale, 1, len);
    }
  });
}

// The panel loop every product's default layout runs, for any tile
// policy: task t owns the C columns [o0, o0+on) — a kNC panel, or one
// image (`width` = plane) for the input-gradient epilogue — and computes
// them on the global B strip grid, [j0, j0+jn): the same range for a
// panel (kNC is a multiple of every kNR), while a strip straddling two
// images is packed, skip-listed and computed exactly as in the panel
// layout, by both tasks, each keeping only its own columns. Without an
// epilogue C is written in place (ldc = n); with one, the panel computes
// into the worker's tile (ldc = jn) and the epilogue writes the output.
// Every C element has exactly one owner that computes it with the same k
// order, so the output is independent of the thread count.
template <typename Tile, typename PackedA, typename Source, typename Epilogue>
void panel_loop(const kernels::KernelTable& kt, const PackedA& a,
                const Source& b, Index n, Index width, typename Tile::C* c,
                const Epilogue* epi) {
  constexpr Index NR = Tile::kNR;
  const Index m = a.rows;
  const Index ntasks = (n + width - 1) / width;
  static obs::Distribution& panel_time = obs::dist("gemm.panel_ns");
  util::parallel_for(0, static_cast<std::size_t>(ntasks), [&](std::size_t t) {
    obs::ScopedTimer panel_timer(panel_time);
    const Index o0 = static_cast<Index>(t) * width;
    const Index on = std::min(width, n - o0);
    const Index j0 = o0 / NR * NR;
    const Index jn = std::min(n, (o0 + on + NR - 1) / NR * NR) - j0;
    auto& sc = panel_scratch<typename Tile::B, typename Tile::C>();
    typename Tile::C* cp =
        epi != nullptr ? grow_scratch(sc.tile, m * jn) : c + j0;
    const Index ldc = epi != nullptr ? jn : n;
    compute_panel(Tile{}, kt, a, b, o0, on, j0, jn, cp, ldc, sc);
    if (epi != nullptr) write_panel(kt, *epi, cp, ldc, m, n, o0, j0, jn);
  });
}

// Depth per chunk of a streamed NT product, rounded to whole images (the
// chunk's lowered B strip and A slices stay cache-resident).
constexpr Index kDepthChunk = 1024;

// Drives a full float C[M,N] product from a packed left operand and a
// BSource through tile policy Tile (NnTile: float accumulators; NtTile:
// double). Three task layouts, each giving every C element exactly one
// owner that computes it with the same k order, so the output is
// independent of the thread count:
//  - panel_loop (the default): kNC-column panels, or one task per image
//    for an input-gradient epilogue (epi->dx). Heavily pruned A against
//    k-major B takes the row-axpy sweeps instead of tiles: per panel for a
//    conv or NCHW operand, else over whole C rows, parallel over rows.
//  - one task per kStripB column strip, over every A row strip, for an NT
//    product over a conv operand (the weight gradient, `c` accumulated
//    into): its depth N·oh·ow is streamed in image-aligned chunks, each
//    lowering only its rows of the column matrix, while each tile's double
//    accumulator carries across chunks in the worker's scratch; tiles are
//    rounded to float once and added into C.
// With an epilogue `epi` `c` is unused; otherwise C is written in place.
template <typename Tile>
void gemm_blocked(const PackedMatrix& a, BSource b, Index n, float* c,
                  const ConvEpilogue* epi = nullptr) {
  const Index m = a.rows;
  const Index depth = a.depth;
  if (m == 0 || n == 0) return;
  const kernels::KernelTable& kt = kernels::active();
  b.axpy = b.packed == nullptr && b.k_major && takes_sparse_axpy(a);
  (b.axpy ? axpy_counter(kt.isa) : Tile::counter(kt.isa)).add(1);
  if (b.axpy && b.conv == nullptr && b.plane == 0) {
    util::parallel_for(0, static_cast<std::size_t>(m), [&](std::size_t r) {
      const Index row = static_cast<Index>(r);
      axpy_row(kt, a, row, b.raw, b.ld, n, c + row * n);
    });
    return;
  }
  if (std::is_same_v<Tile, NtTile> && b.conv != nullptr) {
    // The weight gradient: one task per kStripB column strip, over every A
    // strip, with its double tiles carried across the depth chunks.
    static obs::Distribution& panel_time = obs::dist("gemm.panel_ns");
    constexpr Index MR = kStripANt;
    const Index nas = a.num_strips();
    const Index nbs = (n + kStripB - 1) / kStripB;
    const Index tiles = nas * MR * kStripB;
    const Index plane = b.conv->g.out_h() * b.conv->g.out_w();
    const Index kc = std::max<Index>(1, kDepthChunk / plane) * plane;
    util::parallel_for(0, static_cast<std::size_t>(nbs), [&](std::size_t t) {
      obs::ScopedTimer panel_timer(panel_time);
      const Index j0 = static_cast<Index>(t) * kStripB;
      const Index jn = std::min<Index>(kStripB, n - j0);
      auto& sc = panel_scratch<float, float>();
      double* acc = grow_scratch(sc.acc, tiles);
      std::fill(acc, acc + tiles, 0.0);
      std::int32_t* alist = grow_scratch(sc.alist, kc);
      for (Index k0 = 0; k0 < depth; k0 += kc) {
        const Index kn = std::min(kc, depth - k0);
        pack_panel(kt, b, k0, kn, j0, jn, sc);
        const Index bnk = static_cast<Index>(sc.ptr[1]);
        for (Index sa = 0; sa < nas; ++sa) {
          // The A strip's list segment inside the chunk, rebased to it.
          const std::int32_t* first = a.nnz_k.data() + a.nnz_ptr[sa];
          const std::int32_t* last = a.nnz_k.data() + a.nnz_ptr[sa + 1];
          first = std::lower_bound(first, last, static_cast<std::int32_t>(k0));
          last = std::lower_bound(first, last,
                                  static_cast<std::int32_t>(k0 + kn));
          const Index ank = static_cast<Index>(last - first);
          Index nk = 0;
          const std::int32_t* kl =
              tile_klist(alist, ank, sc.nnz.data(), bnk, kn, nk);
          if (kl == alist) {
            for (Index u = 0; u < ank; ++u) {
              alist[u] = first[u] - static_cast<std::int32_t>(k0);
            }
          }
          kt.nt_2x8(kn, a.data.data() + (sa * depth + k0) * MR, sc.data.data(),
                    kl, nk, acc + sa * MR * kStripB);
        }
      }
      for (Index sa = 0; sa < nas; ++sa) {
        const double* tile = acc + sa * MR * kStripB;
        for (Index i = 0; i < std::min(MR, m - sa * MR); ++i) {
          float* crow = c + (sa * MR + i) * n + j0;
          for (Index j = 0; j < jn; ++j) {
            crow[j] += static_cast<float>(tile[i * kStripB + j]);
          }
        }
      }
    });
    return;
  }
  const bool per_image = epi != nullptr && epi->dx != nullptr;
  panel_loop<Tile>(kt, a, b, n, per_image ? epi->plane : kNC, c, epi);
}

// The int8 products' driver: the panel loop over Int8Tile, C written in
// place (int32) or through the requantising epilogue.
void int8_product(const PackedInt8A& a, const Int8Source& b, Index n,
                  std::int32_t* c, const Requant* epi) {
  if (b.packed != nullptr && b.packed->depth != a.depth) {
    throw std::invalid_argument("matmul_int8: operand depth mismatch (A " +
                                std::to_string(a.depth) + ", B " +
                                std::to_string(b.packed->depth) + ")");
  }
  if (a.rows == 0 || n == 0) return;
  obs::Span span("gemm.int8");
  const kernels::KernelTable& kt = kernels::active();
  Int8Tile::counter(kt.isa).add(1);
  panel_loop<Int8Tile>(kt, a, b, n, kNC, c, epi);
}

PackedMatrix pack_impl(const float* src, Index rows, Index depth,
                       bool row_major, Index strip) {
  PackedMatrix p;
  p.rows = rows;
  p.depth = depth;
  p.strip = strip;
  const Index ns = p.num_strips();
  p.data.assign(static_cast<std::size_t>(ns * depth * strip), 0.0f);
  for (Index s = 0; s < ns; ++s) {
    const Index r0 = s * strip;
    const Index rl = std::min(strip, rows - r0);
    float* dst = p.data.data() + s * depth * strip;
    if (row_major) {
      for (Index t = 0; t < rl; ++t) {
        const float* row = src + (r0 + t) * depth;
        for (Index k = 0; k < depth; ++k) dst[k * strip + t] = row[k];
      }
    } else {
      for (Index k = 0; k < depth; ++k) {
        const float* row = src + k * rows + r0;
        for (Index t = 0; t < rl; ++t) dst[k * strip + t] = row[t];
      }
    }
  }
  p.nnz = build_skip_lists(p.data.data(), ns, depth, strip, p.nnz_k,
                           p.nnz_ptr);
  return p;
}

// Packs a row-major [rows, depth] code matrix into pair strips (the
// gemm_int8.h layout) with their pair skip lists.
template <typename T, Index kLanes>
PackedInt8<T, kLanes> pack_pairs(const std::int8_t* codes, Index rows,
                                 Index depth) {
  PackedInt8<T, kLanes> p;
  p.rows = rows;
  p.depth = depth;
  p.kpairs = (depth + 1) / 2;
  const Index ns = p.num_strips();
  p.data.assign(static_cast<std::size_t>(ns * p.kpairs * 2 * kLanes), 0);
  for (Index s = 0; s < ns; ++s) {
    const Index r0 = s * kLanes;
    const Index rl = std::min<Index>(kLanes, rows - r0);
    T* strip = p.data.data() + s * p.kpairs * 2 * kLanes;
    for (Index i = 0; i < rl; ++i) {
      const std::int8_t* row = codes + (r0 + i) * depth;
      for (Index k = 0; k < depth; ++k) {
        strip[((k >> 1) * kLanes + i) * 2 + (k & 1)] = row[k];
      }
    }
  }
  build_skip_lists(p.data.data(), ns, p.kpairs, 2 * kLanes, p.nnz_p,
                   p.nnz_ptr);
  return p;
}

}  // namespace

PackedMatrix pack_rowmajor(const Tensor& m, Index strip) {
  check_rank2(m, "pack_rowmajor");
  return pack_impl(m.data(), m.dim(0), m.dim(1), /*row_major=*/true, strip);
}

PackedMatrix pack_colmajor(const Tensor& m, Index strip) {
  check_rank2(m, "pack_colmajor");
  return pack_impl(m.data(), m.dim(1), m.dim(0), /*row_major=*/false, strip);
}

// ---- NN: C[M,N] = A[M,K] · B[K,N] ------------------------------------------

Tensor matmul_nn(const PackedMatrix& a, const Tensor& b) {
  check_rank2(b, "matmul_nn");
  check_inner(b.dim(0), a.depth, "matmul_nn");
  obs::Span span("gemm.nn");
  count_gemm(a.rows, b.dim(1), a.depth);
  Tensor c({a.rows, b.dim(1)});
  gemm_blocked<NnTile>(a, {.raw = b.data(), .ld = b.dim(1), .k_major = true},
                       b.dim(1), c.data());
  return c;
}

Tensor matmul_nn(const Tensor& a, const PackedMatrix& b) {
  check_rank2(a, "matmul_nn");
  check_inner(a.dim(1), b.depth, "matmul_nn");
  obs::Span span("gemm.nn");
  count_gemm(a.dim(0), b.rows, b.depth);
  PackedMatrix pa = pack_rowmajor(a, kStripA);
  Tensor c({a.dim(0), b.rows});
  gemm_blocked<NnTile>(pa, {.packed = &b}, b.rows, c.data());
  return c;
}

Tensor matmul_nn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  obs::Span span("gemm.nn");
  count_gemm(m, n, k);
  if (m * n * k <= kernels::active().small_gemm_flops) {
    count_small_dispatch();
    return reference_nn(a, b);
  }
  PackedMatrix pa = pack_rowmajor(a, kStripA);
  Tensor c({m, n});
  gemm_blocked<NnTile>(pa, {.raw = b.data(), .ld = n, .k_major = true}, n,
                       c.data());
  return c;
}

// ---- TN: C[M,N] = A[K,M]ᵀ · B[K,N] -----------------------------------------

Tensor matmul_tn(const PackedMatrix& a, const Tensor& b) {
  check_rank2(b, "matmul_tn");
  check_inner(b.dim(0), a.depth, "matmul_tn");
  obs::Span span("gemm.tn");
  count_gemm(a.rows, b.dim(1), a.depth);
  Tensor c({a.rows, b.dim(1)});
  gemm_blocked<NnTile>(a, {.raw = b.data(), .ld = b.dim(1), .k_major = true},
                       b.dim(1), c.data());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn");
  check_rank2(b, "matmul_tn");
  const Index k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul_tn: inner dims mismatch");
  }
  obs::Span span("gemm.tn");
  count_gemm(m, n, k);
  if (m * n * k <= kernels::active().small_gemm_flops) {
    count_small_dispatch();
    return reference_tn(a, b);
  }
  PackedMatrix pa = pack_colmajor(a, kStripA);
  Tensor c({m, n});
  gemm_blocked<NnTile>(pa, {.raw = b.data(), .ld = n, .k_major = true}, n,
                       c.data());
  return c;
}

// ---- NT: C[M,N] = A[M,K] · B[N,K]ᵀ -----------------------------------------

Tensor matmul_nt(const Tensor& a, const PackedMatrix& b) {
  check_rank2(a, "matmul_nt");
  check_inner(a.dim(1), b.depth, "matmul_nt");
  obs::Span span("gemm.nt");
  count_gemm(a.dim(0), b.rows, b.depth);
  PackedMatrix pa = pack_rowmajor(a, kStripANt);
  Tensor c({a.dim(0), b.rows});
  gemm_blocked<NtTile>(pa, {.packed = &b}, b.rows, c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt");
  check_rank2(b, "matmul_nt");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_nt: inner dims mismatch");
  }
  obs::Span span("gemm.nt");
  count_gemm(m, n, k);
  if (m * n * k <= kernels::active().small_gemm_flops) {
    count_small_dispatch();
    return reference_nt(a, b);
  }
  PackedMatrix pa = pack_rowmajor(a, kStripANt);
  Tensor c({m, n});
  gemm_blocked<NtTile>(pa, {.raw = b.data(), .ld = k, .k_major = false}, n,
                       c.data());
  return c;
}

// ---- Convolution: panels lowered straight from the NCHW input -------------

namespace {

// The weight gradient's left operand: the NCHW output gradient `go`
// ([batch, rows, plane]) read as the [rows, batch·plane] matrix and packed
// into kStripANt strips with skip lists — element and k order exactly
// those of pack_rowmajor over the gathered matrix — into storage this
// thread keeps across calls (sized by grow_scratch, so the vectors may be
// longer than the packed prefix). Strips pack in parallel, strip s listing
// its k from nnz_k[s·depth] in the same pass that copies its two rows;
// the lists are then moved down, in strip order, to their contiguous
// places. The gradient is several MB per call, so this fused, parallel
// pass is kept apart from pack_impl + build_skip_lists, whose copy and
// list passes made dW 7–25% slower (EXPERIMENTS.md "Convolution
// backward").
const PackedMatrix& pack_nchw_rows(const float* go, Index batch, Index rows,
                                   Index plane) {
  thread_local PackedMatrix p;
  thread_local std::vector<Index> strip_nnz;
  constexpr Index kS = kStripANt;
  p.rows = rows;
  p.depth = batch * plane;
  p.strip = kS;
  const Index depth = p.depth;
  const Index ns = p.num_strips();
  float* data = grow_scratch(p.data, ns * depth * kS);
  std::int32_t* kl = grow_scratch(p.nnz_k, ns * depth);
  std::int64_t* ptr = grow_scratch(p.nnz_ptr, ns + 1);
  Index* nnz = grow_scratch(strip_nnz, ns);
  util::parallel_for(0, static_cast<std::size_t>(ns), [&](std::size_t si) {
    const Index s = static_cast<Index>(si);
    const Index r0 = s * kS;
    const bool pair = r0 + 1 < rows;
    float* dst = data + s * depth * kS;
    std::int32_t* list = kl + s * depth;
    Index count = 0, elems = 0;
    for (Index i = 0; i < batch; ++i) {
      const float* row0 = go + (i * rows + r0) * plane;
      const float* row1 = pair ? row0 + plane : nullptr;
      for (Index q = 0; q < plane; ++q, dst += kS) {
        dst[0] = row0[q];
        dst[1] = pair ? row1[q] : 0.0f;
        const Index nz = (dst[0] != 0.0f) + (dst[1] != 0.0f);
        // Branch-free append: the gradient's zeros are unpredictable.
        list[count] = static_cast<std::int32_t>(i * plane + q);
        count += nz != 0;
        elems += nz;
      }
    }
    ptr[s + 1] = count;
    nnz[s] = elems;
  });
  ptr[0] = 0;
  p.nnz = 0;
  for (Index s = 0; s < ns; ++s) {
    const std::int64_t count = ptr[s + 1];
    std::memmove(kl + ptr[s], kl + s * depth,
                 static_cast<std::size_t>(count) * sizeof(std::int32_t));
    ptr[s + 1] = ptr[s] + count;
    p.nnz += nnz[s];
  }
  return p;
}

}  // namespace

void conv2d_nn(const PackedMatrix& a, const float* x, Index batch,
               const Conv2dGeometry& g, const float* bias, float* y,
               const OutputTail& tail, float* mask) {
  const Index n = conv_columns(g, batch, a.depth, "conv2d_nn");
  check_strip_offsets(g, "conv2d_nn");
  if (!tail.empty() && mask == nullptr) {
    throw std::invalid_argument("conv2d_nn: a tail needs a mask");
  }
  obs::Span span("gemm.nn");
  count_gemm(a.rows, n, a.depth);
  count_lowered<float>(a.depth * n);
  const ConvLowering<float> low{.x = x, .batch = batch, .g = g};
  const ConvEpilogue epi{.bias = bias,
                         .y = y,
                         .tail = &tail,
                         .mask = tail.empty() ? nullptr : mask,
                         .plane = g.out_h() * g.out_w()};
  gemm_blocked<NnTile>(a, {.k_major = true, .conv = &low}, n, nullptr, &epi);
}

void conv2d_nt(const float* grad_out, Index out_channels, const float* x,
               Index batch, const Conv2dGeometry& g, float* dw) {
  const Index depth = g.in_channels * g.kernel_h * g.kernel_w;
  const Index k = conv_columns(g, batch, depth, "conv2d_nt");
  obs::Span span("gemm.nt");
  count_gemm(out_channels, depth, k);
  count_lowered<float>(depth * k);
  const PackedMatrix& pa =
      pack_nchw_rows(grad_out, batch, out_channels, g.out_h() * g.out_w());
  const ConvLowering<float> low{.x = x, .batch = batch, .g = g};
  gemm_blocked<NtTile>(pa, {.k_major = false, .conv = &low}, depth, dw);
}

void conv2d_tn(const PackedMatrix& a, const float* grad_out, Index batch,
               const Conv2dGeometry& g, float* dx) {
  const Index plane = g.out_h() * g.out_w();
  const Index n = conv_columns(g, batch, a.rows, "conv2d_tn");
  obs::Span span("gemm.tn");
  count_gemm(a.rows, n, a.depth);
  const BSource bs{
      .raw = grad_out, .ld = a.depth * plane, .k_major = true, .plane = plane};
  const ConvEpilogue epi{.plane = plane, .dx = dx, .g = &g};
  gemm_blocked<NnTile>(a, bs, n, nullptr, &epi);
}

// ---- int8: the same panel loop over Int8Tile -------------------------------

PackedInt8A pack_int8_a(const std::int8_t* codes, Index rows, Index depth) {
  return pack_pairs<std::int16_t, kStripAInt8>(codes, rows, depth);
}

PackedInt8B pack_int8_b(const std::int8_t* codes, Index rows, Index depth) {
  return pack_pairs<std::int8_t, kStripBInt8>(codes, rows, depth);
}

void matmul_int8(const PackedInt8A& a, const PackedInt8B& b, std::int32_t* c) {
  int8_product(a, Int8Source{.packed = &b}, b.rows, c, nullptr);
}

void matmul_int8(const PackedInt8A& a, const PackedInt8B& b,
                 const std::int32_t* bias, int shift, std::int32_t lo,
                 std::int32_t hi, float scale, float* y) {
  static obs::Counter& requants = obs::counter("requantize.col_bias");
  requants.add(1);
  const Requant rq{.bias = bias, .shift = shift, .lo = lo, .hi = hi,
                   .scale = scale, .y = y};
  int8_product(a, Int8Source{.packed = &b}, b.rows, nullptr, &rq);
}

void conv2d_int8(const PackedInt8A& a, const std::int8_t* x, Index batch,
                 const Conv2dGeometry& g, const std::int32_t* bias, int shift,
                 std::int32_t lo, std::int32_t hi, float scale, float* y) {
  const Index n = conv_columns(g, batch, a.depth, "conv2d_int8");
  check_strip_offsets(g, "conv2d_int8");
  count_lowered<std::int8_t>(a.depth * n);
  static obs::Counter& requants = obs::counter("requantize.row_bias");
  requants.add(1);
  const ConvLowering<std::int8_t> low{.x = x, .batch = batch, .g = g};
  const Requant rq{.bias = bias, .shift = shift, .lo = lo, .hi = hi,
                   .scale = scale, .y = y, .plane = g.out_h() * g.out_w()};
  int8_product(a, Int8Source{.conv = &low}, n, nullptr, &rq);
}

void quantize_codes(std::int8_t* dst, const float* src, float inv_step,
                    float lo, float hi, Index n) {
  static obs::Counter& calls = obs::counter("requantize.quant_i8");
  calls.add(1);
  kernels::active().quant_i8(dst, src, inv_step, lo, hi, n);
}

}  // namespace con::tensor::gemm
