#include <gtest/gtest.h>

#include <stdexcept>

#include "oracles/conv_lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace con::tensor {
namespace {

TEST(Shape, ReportsRankDimsAndNumel) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.numel(), 24);
}

TEST(Shape, EqualityComparesDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({2, -1}), std::invalid_argument);
}

TEST(Shape, DimOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), std::out_of_range);
  EXPECT_THROW(s.dim(-1), std::out_of_range);
}

TEST(Shape, ScalarShapeHasNumelOne) {
  Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Tensor, ZeroInitialised) {
  Tensor t({2, 2});
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({3}, 2.5f);
  for (float v : t.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, ValueConstructorChecksCount) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, MultiIndexAccessRowMajor) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0, 3}), std::out_of_range);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at({2, 1}), 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Ops, ElementwiseAddSubMul) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{3, 5});
  EXPECT_EQ(add(a, b)[0], 4.0f);
  EXPECT_EQ(sub(b, a)[1], 3.0f);
  EXPECT_EQ(mul(a, b)[1], 10.0f);
  EXPECT_EQ(scale(a, 2.0f)[1], 4.0f);
  EXPECT_EQ(add_scaled(a, b, 2.0f)[0], 7.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul(a, b), std::invalid_argument);
}

TEST(Ops, SignValues) {
  Tensor t({3}, std::vector<float>{-2.0f, 0.0f, 0.5f});
  Tensor s = sign(t);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 0.0f);
  EXPECT_EQ(s[2], 1.0f);
}

TEST(Ops, ClampBounds) {
  Tensor t({3}, std::vector<float>{-1.0f, 0.5f, 2.0f});
  Tensor c = clamp(t, 0.0f, 1.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.5f);
  EXPECT_EQ(c[2], 1.0f);
  EXPECT_THROW(clamp(t, 1.0f, 0.0f), std::invalid_argument);
}

TEST(Ops, Reductions) {
  Tensor t({4}, std::vector<float>{1, -2, 3, 0});
  EXPECT_FLOAT_EQ(sum(t), 2.0f);
  EXPECT_FLOAT_EQ(mean(t), 0.5f);
  EXPECT_FLOAT_EQ(min_value(t), -2.0f);
  EXPECT_FLOAT_EQ(max_value(t), 3.0f);
  EXPECT_FLOAT_EQ(l2_norm(t), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(linf_norm(t), 3.0f);
  EXPECT_DOUBLE_EQ(zero_fraction(t), 0.25);
}

TEST(Ops, ArgmaxRowPicksPerRow) {
  Tensor t({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  EXPECT_EQ(argmax_row(t, 0), 1);
  EXPECT_EQ(argmax_row(t, 1), 0);
  EXPECT_THROW((void)argmax_row(t, 2), std::out_of_range);
}

TEST(Ops, MatmulAgainstHandComputation) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = gemm::matmul_nn(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Ops, MatmulInnerDimMismatchThrows) {
  EXPECT_THROW((void)gemm::matmul_nn(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
}

TEST(Ops, MatmulVariantsAgreeWithExplicitTranspose) {
  util::Rng rng(7);
  Tensor a({4, 3});
  Tensor b({4, 5});
  Tensor c({5, 3});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  fill_normal(c, rng, 0.0f, 1.0f);
  // matmul_tn(a, b) == a^T b
  Tensor expected_tn = gemm::matmul_nn(transpose(a), b);
  Tensor got_tn = gemm::matmul_tn(a, b);
  for (Index i = 0; i < expected_tn.numel(); ++i) {
    EXPECT_NEAR(got_tn[i], expected_tn[i], 1e-4f);
  }
  // matmul_nt(a, c) == a c^T
  Tensor expected_nt = gemm::matmul_nn(a, transpose(c));
  Tensor got_nt = gemm::matmul_nt(a, c);
  for (Index i = 0; i < expected_nt.numel(); ++i) {
    EXPECT_NEAR(got_nt[i], expected_nt[i], 1e-4f);
  }
}

TEST(Ops, TransposeInvolution) {
  util::Rng rng(11);
  Tensor a({3, 5});
  fill_uniform(a, rng, -1.0f, 1.0f);
  Tensor tt = transpose(transpose(a));
  for (Index i = 0; i < a.numel(); ++i) EXPECT_EQ(tt[i], a[i]);
}

TEST(Ops, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1: columns are exactly the flattened image.
  Tensor img({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Conv2dGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel_h = 1,
                   .kernel_w = 1};
  Tensor cols = im2col(img, g);
  ASSERT_EQ(cols.shape(), Shape({1, 4}));
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Ops, Im2colKnownPatch) {
  // 3x3 image, 2x2 kernel, stride 1 -> 4 patches of 4 values.
  Tensor img({1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Conv2dGeometry g{.in_channels = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                   .kernel_w = 2};
  Tensor cols = im2col(img, g);
  ASSERT_EQ(cols.shape(), Shape({4, 4}));
  // top-left patch is column 0: values 1, 2, 4, 5 down the rows.
  EXPECT_EQ(cols.at({0, 0}), 1.0f);
  EXPECT_EQ(cols.at({1, 0}), 2.0f);
  EXPECT_EQ(cols.at({2, 0}), 4.0f);
  EXPECT_EQ(cols.at({3, 0}), 5.0f);
  // bottom-right patch is column 3: 5, 6, 8, 9.
  EXPECT_EQ(cols.at({0, 3}), 5.0f);
  EXPECT_EQ(cols.at({3, 3}), 9.0f);
}

TEST(Ops, Im2colPaddingZeros) {
  Tensor img({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Conv2dGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .padding = 1};
  Tensor cols = im2col(img, g);
  ASSERT_EQ(cols.shape(), Shape({9, 4}));
  // centre tap of the first output position is pixel (0,0) = 1; corner taps
  // hit padding.
  EXPECT_EQ(cols.at({4, 0}), 1.0f);
  EXPECT_EQ(cols.at({0, 0}), 0.0f);
}

// Property: col2im is the adjoint of im2col — <im2col(x), y> == <x, col2im(y)>
// for all x, y. This is exactly the identity conv backward relies on.
TEST(Ops, Col2imIsAdjointOfIm2col) {
  util::Rng rng(13);
  Conv2dGeometry g{.in_channels = 2, .in_h = 5, .in_w = 4, .kernel_h = 3,
                   .kernel_w = 2, .stride = 1, .padding = 1};
  Tensor x({g.in_channels, g.in_h, g.in_w});
  fill_normal(x, rng, 0.0f, 1.0f);
  Tensor y({g.in_channels * g.kernel_h * g.kernel_w, g.out_h() * g.out_w()});
  fill_normal(y, rng, 0.0f, 1.0f);

  Tensor ix = im2col(x, g);
  Tensor cy = col2im(y, g);
  double lhs = 0.0, rhs = 0.0;
  for (Index i = 0; i < ix.numel(); ++i) lhs += double(ix[i]) * y[i];
  for (Index i = 0; i < x.numel(); ++i) rhs += double(x[i]) * cy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, SliceAndSetBatchRoundTrip) {
  Tensor batch({3, 2, 2});
  Tensor sample({2, 2}, std::vector<float>{1, 2, 3, 4});
  set_batch(batch, 1, sample);
  Tensor back = slice_batch(batch, 1);
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(back[i], sample[i]);
  Tensor zero = slice_batch(batch, 0);
  for (Index i = 0; i < 4; ++i) EXPECT_EQ(zero[i], 0.0f);
  EXPECT_THROW(slice_batch(batch, 3), std::out_of_range);
  EXPECT_THROW(set_batch(batch, 0, Tensor({3})), std::invalid_argument);
}

TEST(Ops, StackBuildsBatch) {
  std::vector<Tensor> samples = {Tensor({2}, std::vector<float>{1, 2}),
                                 Tensor({2}, std::vector<float>{3, 4})};
  Tensor batch = stack(samples);
  ASSERT_EQ(batch.shape(), Shape({2, 2}));
  EXPECT_EQ(batch.at({1, 0}), 3.0f);
  EXPECT_THROW(stack({}), std::invalid_argument);
}

TEST(RandomFills, KaimingStddevApproximatelyCorrect) {
  util::Rng rng(5);
  Tensor t({200, 100});
  fill_kaiming_normal(t, rng, 100);
  const float m = mean(t);
  double var = 0.0;
  for (float v : t.flat()) var += double(v - m) * (v - m);
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(m, 0.0f, 0.01f);
  EXPECT_NEAR(var, 2.0 / 100.0, 0.002);
}

TEST(RandomFills, UniformRespectsBounds) {
  util::Rng rng(6);
  Tensor t({1000});
  fill_uniform(t, rng, 0.25f, 0.75f);
  EXPECT_GE(min_value(t), 0.25f);
  EXPECT_LT(max_value(t), 0.75f);
}

}  // namespace
}  // namespace con::tensor
