#include "oracles/conv_lowering.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace con::tensor {

Tensor transpose(const Tensor& a) {
  if (a.rank() != 2) {
    throw std::invalid_argument("transpose: expected rank-2, got " +
                                a.shape().to_string());
  }
  const Index m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  const float* s = a.data();
  float* d = out.data();
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) d[j * m + i] = s[i * n + j];
  }
  return out;
}

namespace {

// Lowers one CHW image into its patch-column block. `dst` points at the
// block's first column; rows of the destination matrix are `dst_ld` floats
// apart (oh*ow for a single image, n*oh*ow for a block inside a batched
// matrix). The single-image and batched entry points below share this body,
// differing only in where the blocks sit.
void im2col_image(const float* src, float* dst, Index dst_ld,
                  const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const bool unit = g.stride == 1;
  for (Index c = 0; c < g.in_channels; ++c) {
    for (Index kh = 0; kh < g.kernel_h; ++kh) {
      for (Index kw = 0; kw < g.kernel_w; ++kw) {
        const Index row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        float* drow = dst + row * dst_ld;
        // With stride 1 the patch row is a contiguous slice of the image
        // row shifted by `off`; [x0, x1) is its in-bounds span.
        const Index off = kw - g.padding;
        const Index x0 = unit ? std::max<Index>(0, -off) : 0;
        const Index x1 = unit ? std::min<Index>(ow, g.in_w - off) : 0;
        for (Index y = 0; y < oh; ++y) {
          const Index in_y = y * g.stride + kh - g.padding;
          if (in_y < 0 || in_y >= g.in_h) {
            for (Index x = 0; x < ow; ++x) drow[y * ow + x] = 0.0f;
            continue;
          }
          const float* srow = src + (c * g.in_h + in_y) * g.in_w;
          if (unit) {
            float* d = drow + y * ow;
            for (Index x = 0; x < x0; ++x) d[x] = 0.0f;
            if (x1 > x0) {
              std::memcpy(d + x0, srow + x0 + off,
                          static_cast<std::size_t>(x1 - x0) * sizeof(float));
            }
            for (Index x = std::max(x0, x1); x < ow; ++x) d[x] = 0.0f;
            continue;
          }
          for (Index x = 0; x < ow; ++x) {
            const Index in_x = x * g.stride + kw - g.padding;
            drow[y * ow + x] =
                (in_x >= 0 && in_x < g.in_w) ? srow[in_x] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2dGeometry& g) {
  if (image.rank() != 3 || image.dim(0) != g.in_channels ||
      image.dim(1) != g.in_h || image.dim(2) != g.in_w) {
    throw std::invalid_argument("im2col: image shape " +
                                image.shape().to_string() +
                                " does not match geometry");
  }
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col: non-positive output size");
  }
  Tensor cols({g.in_channels * g.kernel_h * g.kernel_w, oh * ow});
  im2col_image(image.data(), cols.data(), oh * ow, g);
  return cols;
}

Tensor col2im(const Tensor& columns, const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  if (columns.rank() != 2 ||
      columns.dim(0) != g.in_channels * g.kernel_h * g.kernel_w ||
      columns.dim(1) != oh * ow) {
    throw std::invalid_argument("col2im: column shape " +
                                columns.shape().to_string() +
                                " does not match geometry");
  }
  Tensor image({g.in_channels, g.in_h, g.in_w});
  col2im_add(columns.data(), oh * ow, g, image.data());
  return image;
}

Tensor im2col_batch(const Tensor& batch, const Conv2dGeometry& g) {
  if (batch.rank() != 4 || batch.dim(1) != g.in_channels ||
      batch.dim(2) != g.in_h || batch.dim(3) != g.in_w) {
    throw std::invalid_argument("im2col_batch: batch shape " +
                                batch.shape().to_string() +
                                " does not match geometry");
  }
  const Index n = batch.dim(0);
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col_batch: non-positive output size");
  }
  const Index plane = oh * ow;
  const Index rows = g.in_channels * g.kernel_h * g.kernel_w;
  const Index cols_per_row = n * plane;
  Tensor cols({rows, cols_per_row});
  const Index image_stride = g.in_channels * g.in_h * g.in_w;
  for (Index i = 0; i < n; ++i) {
    im2col_image(batch.data() + i * image_stride, cols.data() + i * plane,
                 cols_per_row, g);
  }
  return cols;
}

Tensor col2im_batch(const Tensor& columns, Index batch_size,
                    const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const Index plane = oh * ow;
  const Index rows = g.in_channels * g.kernel_h * g.kernel_w;
  if (columns.rank() != 2 || columns.dim(0) != rows ||
      columns.dim(1) != batch_size * plane) {
    throw std::invalid_argument("col2im_batch: column shape " +
                                columns.shape().to_string() +
                                " does not match geometry");
  }
  Tensor batch({batch_size, g.in_channels, g.in_h, g.in_w});
  const Index cols_per_row = batch_size * plane;
  const Index image_stride = g.in_channels * g.in_h * g.in_w;
  for (Index i = 0; i < batch_size; ++i) {
    col2im_add(columns.data() + i * plane, cols_per_row, g,
               batch.data() + i * image_stride);
  }
  return batch;
}

}  // namespace con::tensor
