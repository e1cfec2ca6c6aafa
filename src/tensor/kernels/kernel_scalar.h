// The scalar micro-kernels: the bit-exact oracle every SIMD table entry is
// measured against, and the default table's implementation.
//
// These are the exact loops tensor/gemm.cpp and tensor/ops.cpp ran before
// the dispatch layer existed — moved here verbatim so the scalar table
// entry, the SIMD TUs' remainder handling, and the oracle tests all share
// one definition. Keep the operation sequences byte-for-byte: one
// accumulator per output element fed the full k range in ascending order,
// no reassociation, no FMA (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/kernels/dispatch.h"
#include "tensor/tensor.h"

namespace con::tensor::kernels::scalar {

// The register-tile micro-kernel body (gemm.h): adds one MR×NR tile's
// terms to acc[i*NR + j], k ascending over the full depth — the
// pre-blocking scalar loops' exact operation sequence. `klist == nullptr`
// runs the dense loop; otherwise only the listed k are visited, and rows
// whose A value is zero are skipped too — every elided term has a zero
// factor.
template <int MR, int NR, typename Acc>
inline void accumulate_tile(Index depth, const float* __restrict ap,
                            const float* __restrict bp,
                            const std::int32_t* __restrict klist, Index nk,
                            Acc* __restrict acc) {
  if (klist == nullptr) {
    for (Index k = 0; k < depth; ++k) {
      const float* __restrict av = ap + k * MR;
      const float* __restrict bv = bp + k * NR;
      for (int i = 0; i < MR; ++i) {
        const Acc a = static_cast<Acc>(av[i]);
        for (int j = 0; j < NR; ++j) {
          acc[i * NR + j] += a * static_cast<Acc>(bv[j]);
        }
      }
    }
  } else {
    for (Index t = 0; t < nk; ++t) {
      const Index k = klist[t];
      const float* __restrict av = ap + k * MR;
      const float* __restrict bv = bp + k * NR;
      for (int i = 0; i < MR; ++i) {
        const Acc a = static_cast<Acc>(av[i]);
        if (a == Acc(0)) continue;  // pruned row within a live strip column
        for (int j = 0; j < NR; ++j) {
          acc[i * NR + j] += a * static_cast<Acc>(bv[j]);
        }
      }
    }
  }
}

// Float tile from zero, written as the mv×nv valid corner of C.
inline void nn_4x8(Index depth, const float* ap, const float* bp,
                   const std::int32_t* klist, Index nk, float* c, Index ldc,
                   Index mv, Index nv) {
  float acc[4 * 8] = {};
  accumulate_tile<4, 8, float>(depth, ap, bp, klist, nk, acc);
  if (mv == 4 && nv == 8) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 8; ++j) c[i * ldc + j] = acc[i * 8 + j];
    }
    return;
  }
  for (Index i = 0; i < mv; ++i) {
    for (Index j = 0; j < nv; ++j) c[i * ldc + j] = acc[i * 8 + j];
  }
}

// Double tile carried in the caller's storage (dispatch.h NtMicroKernelFn),
// loaded into a local tile so the accumulators stay in registers.
inline void nt_2x8(Index depth, const float* ap, const float* bp,
                   const std::int32_t* klist, Index nk, double* acc) {
  double tile[2 * 8];
  std::copy(acc, acc + 2 * 8, tile);
  accumulate_tile<2, 8, double>(depth, ap, bp, klist, nk, tile);
  std::copy(tile, tile + 2 * 8, acc);
}

// ---- int8 integer path (the bit-exact oracle for every ISA) -----------------
// Integer arithmetic end to end: the SIMD variants reorder freely (integer
// addition is associative) and still match these loops bit for bit. See
// dispatch.h for the layouts and tests/oracles/integer_exec.cpp for the
// int64 reference these agree with whenever the int32 accumulator cannot
// overflow (K·2¹⁴ + |bias| < 2³¹, validated at lowering).

// Round-half-even arithmetic right shift — the int32 twin of
// compress::integer_exec's rshift_round_half_even. shift must be > 0 when
// called from the loop below (the 0 case is handled by the caller).
inline std::int32_t rshift_rne_i32(std::int32_t v, int shift) {
  const std::int32_t q = v >> shift;  // arithmetic shift: floor division
  const std::int32_t r = v - (q << shift);
  const std::int32_t half = std::int32_t{1} << (shift - 1);
  if (r > half || (r == half && (q & 1))) return q + 1;
  return q;
}

inline void int8_4x16(Index kpairs, const std::int16_t* __restrict ap,
                      const std::int8_t* __restrict bp,
                      const std::int32_t* __restrict klist, Index nk,
                      std::int32_t* __restrict c, Index ldc, Index mv,
                      Index nv) {
  std::int32_t acc[4][16] = {};
  const Index np = klist == nullptr ? kpairs : nk;
  for (Index t = 0; t < np; ++t) {
    const Index p = klist == nullptr ? t : klist[t];
    const std::int16_t* __restrict av = ap + p * 8;
    const std::int8_t* __restrict bv = bp + p * 32;
    for (int i = 0; i < 4; ++i) {
      const std::int32_t a0 = av[i * 2 + 0];
      const std::int32_t a1 = av[i * 2 + 1];
      if ((a0 | a1) == 0) continue;  // pruned row within a live strip pair
      for (int j = 0; j < 16; ++j) {
        acc[i][j] += a0 * bv[j * 2 + 0] + a1 * bv[j * 2 + 1];
      }
    }
  }
  if (mv == 4 && nv == 16) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 16; ++j) c[i * ldc + j] = acc[i][j];
    }
  } else {
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = acc[i][j];
    }
  }
}

inline void quant_i8(std::int8_t* __restrict d, const float* __restrict s,
                     float inv_step, float lo, float hi, Index n) {
  for (Index i = 0; i < n; ++i) {
    const float v = std::min(hi, std::max(lo, s[i]));
    d[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(std::nearbyint(v * inv_step)));
  }
}

inline void requant_col_bias(float* __restrict y,
                             const std::int32_t* __restrict acc,
                             const std::int32_t* __restrict bias, int shift,
                             std::int32_t lo, std::int32_t hi, float scale,
                             Index rows, Index cols) {
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < cols; ++j) {
      const std::int32_t v = acc[r * cols + j] + bias[j];
      std::int32_t q = shift == 0 ? v : rshift_rne_i32(v, shift);
      if (q < lo) q = lo;
      if (q > hi) q = hi;
      y[r * cols + j] = static_cast<float>(q) * scale;
    }
  }
}

inline void requant_row_bias(float* __restrict y,
                             const std::int32_t* __restrict acc,
                             const std::int32_t* __restrict bias, int shift,
                             std::int32_t lo, std::int32_t hi, float scale,
                             Index rows, Index cols) {
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t b = bias[r];
    for (Index j = 0; j < cols; ++j) {
      const std::int32_t v = acc[r * cols + j] + b;
      std::int32_t q = shift == 0 ? v : rshift_rne_i32(v, shift);
      if (q < lo) q = lo;
      if (q > hi) q = hi;
      y[r * cols + j] = static_cast<float>(q) * scale;
    }
  }
}

// ---- elementwise (the exact tensor/ops.cpp loops) ---------------------------

inline void axpy(float* d, const float* s, float a,
                 Index n) {
  for (Index i = 0; i < n; ++i) d[i] += a * s[i];
}

inline void axpy_out(float* d, const float* a,
                     const float* b, float s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = a[i] + s * b[i];
}

inline void add(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] += s[i];
}

inline void sub(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] -= s[i];
}

inline void mul(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] *= s[i];
}

inline void scale(float* d, float s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] *= s;
}

inline void clamp(float* d, float lo, float hi, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = std::min(hi, std::max(lo, d[i]));
}

inline void relu(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = s[i] > 0.0f ? s[i] : 0.0f;
}

inline void sign(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) {
    d[i] = (s[i] > 0.0f) ? 1.0f : (s[i] < 0.0f ? -1.0f : 0.0f);
  }
}

// The gradient passes where relu passed the value (x > 0), so a NaN input
// blocks it, as on every table.
inline void relu_bwd(float* g, const float* in,
                     Index n) {
  for (Index i = 0; i < n; ++i) {
    if (!(in[i] > 0.0f)) g[i] = 0.0f;
  }
}

// The ReLU of a fused output tail (dispatch.h ReluMaskFn): relu's forward
// and, in the mask, -1 on exactly the lanes relu_bwd zeroes. `gate` may
// alias `mask` (each lane is read before it is written).
inline void relu_mask(float* x, float* mask, const float* gate, Index n) {
  for (Index i = 0; i < n; ++i) {
    const bool keep = x[i] > 0.0f;
    mask[i] = keep ? (gate != nullptr ? gate[i] : 1.0f) : -1.0f;
    x[i] = keep ? x[i] : 0.0f;
  }
}

// A fused output tail's backward (dispatch.h, `tail_bwd`).
inline void tail_bwd(float* g, const float* mask, Index n) {
  for (Index i = 0; i < n; ++i) g[i] = mask[i] < 0.0f ? 0.0f : g[i] * mask[i];
}

// Fixed-point fake-quantisation (dispatch.h FakeQuantFn), the operation
// sequence of the per-value compress::fixed_point_quantize(float) oracle
// (tests/oracles/integer_exec.h). It divides by `step`; `inv_step` is only
// for the AVX2 table, whose multiply rounds the same real number (step is
// a power of two).
inline void fake_quant(float* d, float* g, const float* s, float step,
                       float /*inv_step*/, float lo, float hi, Index n) {
  for (Index i = 0; i < n; ++i) {
    float q = std::nearbyint(s[i] / step) * step;
    const bool saturated = q < lo || q > hi;
    if (q < lo) q = lo;
    if (q > hi) q = hi;
    d[i] = q;
    if (g != nullptr) g[i] = saturated ? 0.0f : 1.0f;
  }
}

// The panel-packing inner row scatter (gemm.cpp pack_panel, k-major path):
// the exact copy-and-flag loops the packer always ran.
inline void pack_row8(float* panel, const float* src, Index jn, Index depth,
                      Index k, char* flags) {
  const Index ns = (jn + 7) / 8;
  for (Index s = 0; s < ns; ++s) {
    const Index c0 = s * 8;
    const Index cl = jn - c0 < 8 ? jn - c0 : Index(8);
    float* dst = panel + (s * depth + k) * 8;
    char nz = 0;
    for (Index t = 0; t < cl; ++t) {
      dst[t] = src[c0 + t];
      nz |= (dst[t] != 0.0f);
    }
    flags[s * depth + k] = nz;
  }
}

// Calls f(k, c, kh, kw) for every column-matrix row of a ConvStrip, k
// ascending.
template <typename F>
inline void for_each_row(const ConvStrip& cs, F&& f) {
  Index k = 0;
  for (Index c = 0; c < cs.channels; ++c) {
    for (Index kh = 0; kh < cs.kernel_h; ++kh) {
      for (Index kw = 0; kw < cs.kernel_w; ++kw) f(k++, c, kh, kw);
    }
  }
}

// Writes the kLanes lanes of a ConvStrip at every column-matrix row k
// into dst(k), then calls done(k, dst(k)). Lanes are grouped into runs
// that read one contiguous input row (same image and iy0, ix0 one apart);
// per kernel row each run resolves its input row once, and per kernel
// column it is a copy of the lanes inside the row between zero fills:
// the input element under the lane's window, or T{0} for padding.
template <int kLanes, typename T, typename Dst, typename Done>
inline void lower_runs(const T* x, const ConvStrip& cs, Dst&& dst,
                       Done&& done) {
  int start[kLanes + 1];
  int runs = 0;
  for (int t = 0; t < kLanes; ++t) {
    if (t == 0 || cs.image[t] != cs.image[t - 1] ||
        cs.iy0[t] != cs.iy0[t - 1] || cs.ix0[t] != cs.ix0[t - 1] + 1) {
      start[runs++] = t;
    }
  }
  start[runs] = kLanes;
  const Index w = cs.in_w;
  const T* row[kLanes];  // per run: its input row, or null for padding
  Index k = 0;
  for (Index c = 0; c < cs.channels; ++c) {
    for (Index kh = 0; kh < cs.kernel_h; ++kh) {
      for (int r = 0; r < runs; ++r) {
        const int t0 = start[r];
        const Index iy = cs.iy0[t0] + kh;
        row[r] = iy < 0 || iy >= cs.in_h
                     ? nullptr
                     : x + cs.image[t0] + (c * cs.in_h + iy) * w;
      }
      for (Index kw = 0; kw < cs.kernel_w; ++kw, ++k) {
        T* d = dst(k);
        for (int r = 0; r < runs; ++r) {
          const int t0 = start[r], t1 = start[r + 1];
          // Lane t of the run reads input column x0 + t.
          const Index x0 = cs.ix0[t0] + kw - t0;
          if (row[r] == nullptr) {
            for (int t = t0; t < t1; ++t) d[t] = T{0};
          } else if (runs == 1 && x0 >= 0 && x0 + kLanes <= w) {
            std::memcpy(d, row[r] + x0, kLanes * sizeof(T));
          } else {
            // Lanes [a, b) read inside the row, the rest are padding.
            const Index a = std::clamp<Index>(-x0, t0, t1);
            const Index b = std::clamp<Index>(w - x0, a, t1);
            for (Index t = t0; t < a; ++t) d[t] = T{0};
            for (Index t = a; t < b; ++t) d[t] = row[r][x0 + t];
            for (Index t = b; t < t1; ++t) d[t] = T{0};
          }
        }
        done(k, d);
      }
    }
  }
}

// The float strip writer (dispatch.h LowerStripFn).
inline void lower_strip8(float* strip, char* flags, const float* x,
                         const ConvStrip& cs) {
  lower_runs<8>(
      x, cs, [&](Index k) { return strip + k * 8; },
      [&](Index k, const float* col) {
        // Nonzero bits below the sign bit: the `!= 0.0f` test (NaN counts).
        std::uint32_t bits[8];
        std::memcpy(bits, col, sizeof(bits));
        std::uint32_t nz = 0;
        for (int t = 0; t < 8; ++t) nz |= bits[t] & 0x7fffffffu;
        flags[k] = nz != 0;
      });
}

// The int8 pair-strip writer (dispatch.h LowerStripInt8Fn): rows 2p and
// 2p + 1 are lowered side by side and interleaved into the pair block
// once the odd row is in, as 64-bit words (byte t of a little-endian word
// is lane t); odd depth's last pair pairs its even row with code 0.
static_assert(std::endian::native == std::endian::little);
inline void lower_strip16_int8(std::int8_t* strip, char* flags,
                               const std::int8_t* x, const ConvStrip& cs) {
  const Index depth = cs.channels * cs.kernel_h * cs.kernel_w;
  std::int8_t rows[2][16] = {};
  // Four codes, one per byte, moved to the even bytes of a word.
  auto spread = [](std::uint64_t v) {
    v = (v | v << 16) & 0x0000ffff0000ffffu;
    return (v | v << 8) & 0x00ff00ff00ff00ffu;
  };
  auto put = [&](Index p) {
    std::uint64_t even[2], odd[2], blk[4];
    std::memcpy(even, rows[0], sizeof(even));
    std::memcpy(odd, rows[1], sizeof(odd));
    for (int h = 0; h < 4; ++h) {
      const int shift = 32 * (h % 2);
      blk[h] = spread(even[h / 2] >> shift & 0xffffffffu) |
               spread(odd[h / 2] >> shift & 0xffffffffu) << 8;
    }
    std::memcpy(strip + p * 32, blk, sizeof(blk));
    flags[p] = (even[0] | even[1] | odd[0] | odd[1]) != 0;
  };
  lower_runs<16>(
      x, cs, [&](Index k) { return rows[k % 2]; },
      [&](Index k, const std::int8_t*) {
        if (k % 2 != 0) put(k / 2);
      });
  if (depth % 2 != 0) {
    std::fill(rows[1], rows[1] + 16, std::int8_t{0});
    put(depth / 2);
  }
}

// 2×2 / stride-2 max pooling (dispatch.h MaxPool2x2Fn) over the output
// columns [px0, px1) of one output row: r0/r1 are the window's two input
// rows, `base` the flat index of r0[0]. The generic MaxPool2d loop's exact
// sequence for this window shape; the AVX2 table runs it for its tails.
inline void maxpool2x2_row(float* out, Index* idx, const float* r0,
                           const float* r1, Index w, Index base, Index px0,
                           Index px1) {
  for (Index px = px0; px < px1; ++px) {
    const float v0 = r0[2 * px], v1 = r0[2 * px + 1];
    const float v2 = r1[2 * px], v3 = r1[2 * px + 1];
    float best = -std::numeric_limits<float>::infinity();
    Index off = 0;
    best = v0 > best ? v0 : best;
    off = v1 > best ? 1 : off;
    best = v1 > best ? v1 : best;
    off = v2 > best ? w : off;
    best = v2 > best ? v2 : best;
    off = v3 > best ? w + 1 : off;
    best = v3 > best ? v3 : best;
    out[px] = best;
    if (idx != nullptr) idx[px] = base + 2 * px + off;
  }
}

inline void maxpool2x2(float* out, Index* idx, const float* in, Index planes,
                       Index h, Index w) {
  const Index oh = h / 2, ow = w / 2;
  for (Index pl = 0; pl < planes; ++pl) {
    for (Index py = 0; py < oh; ++py) {
      const Index base = (pl * h + 2 * py) * w;
      const Index o = (pl * oh + py) * ow;
      maxpool2x2_row(out + o, idx == nullptr ? nullptr : idx + o, in + base,
                     in + base + w, w, base, 0, ow);
    }
  }
}

}  // namespace con::tensor::kernels::scalar
