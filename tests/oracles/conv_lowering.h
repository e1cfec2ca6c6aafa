// Materialised conv lowering: the column matrices that the production
// convolutions (tensor/gemm.h conv2d_*) never build, so the tests can state
// every conv product as one plain GEMM over them. No production path runs
// these, and they do not add to the im2col.bytes counter.
#pragma once

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::tensor {

// Rank-2 transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

// im2col for one CHW image: [C,H,W] -> [C*kh*kw, out_h*out_w], standard
// stride/padding semantics (padding positions read 0).
[[nodiscard]] Tensor im2col(const Tensor& image, const Conv2dGeometry& g);
// Scatter-add the column gradient back into an image gradient [C,H,W].
[[nodiscard]] Tensor col2im(const Tensor& columns, const Conv2dGeometry& g);

// Batched: [N,C,H,W] -> [C*kh*kw, N*out_h*out_w], sample i in the column
// block [i*out_h*out_w, (i+1)*out_h*out_w), laid out as im2col.
[[nodiscard]] Tensor im2col_batch(const Tensor& batch, const Conv2dGeometry& g);
// [C*kh*kw, N*out_h*out_w] -> [N,C,H,W] (scatter-add through col2im_add).
[[nodiscard]] Tensor col2im_batch(const Tensor& columns, Index batch_size,
                                  const Conv2dGeometry& g);

}  // namespace con::tensor
