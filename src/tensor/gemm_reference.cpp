// The pre-blocking scalar GEMM loops, kept verbatim as they ran before the
// blocked gemm::matmul_{nn,tn,nt} kernels existed. They are the correctness
// oracle for tests/test_gemm.cpp and the before/after baseline in
// bench_micro_ops, so they live in their own translation unit compiled at
// the project-default optimization level — the codegen callers actually ran
// then. Keep them byte-for-byte; the blocked kernels promise to reproduce
// their output exactly.
#include "tensor/gemm.h"

namespace con::tensor::gemm {

Tensor reference_nn(const Tensor& a, const Tensor& b) {
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // i-k-j loop order: unit-stride access on B and C rows.
  for (Index i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;  // pruned weights make A genuinely sparse
      const float* brow = pb + kk * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor reference_tn(const Tensor& a, const Tensor& b) {
  const Index k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (Index kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (Index i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor reference_nt(const Tensor& a, const Tensor& b) {
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (Index i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (Index j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (Index kk = 0; kk < k; ++kk) acc += double(arow[kk]) * brow[kk];
      crow[j] = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace con::tensor::gemm
