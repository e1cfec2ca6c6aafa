// Per-worker scratch storage for the GEMM panel driver (gemm.cpp). Each
// worker thread keeps its panel buffers in thread_local storage across
// panels and calls; every size change goes through grow_scratch, so the
// panel loops allocate in exactly one place, and only until each worker's
// buffers reach their high-water mark (tests/test_heap.cpp counts them).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace con::tensor {

// Grows `v` to hold at least `n` elements and returns its storage. Never
// shrinks: once a worker has run the largest panel of a call shape, later
// panels of that shape reuse the capacity and this does not allocate.
// Grown elements are value-initialised; callers overwrite what they read.
template <typename T>
T* grow_scratch(std::vector<T>& v, Index n) {
  const auto need = static_cast<std::size_t>(n);
  if (v.size() < need) v.resize(need);
  return v.data();
}

}  // namespace con::tensor
