// Kernel-table resolution: probe once, dispatch forever.
//
// The active table lives behind one atomic pointer. First use resolves it
// from the CON_KERNEL environment override, checked against the host probe
// (cpuid via __builtin_cpu_supports on x86-64). Resolution is idempotent,
// so a first-use race between threads is benign: both resolve the same
// pointer. After that every lookup is a single relaxed load; nothing on
// the dispatch path allocates (tests/test_kernels.cpp pins the tensor
// buffers, tests/test_heap.cpp every heap allocation of the GEMM callers).
#include "tensor/kernels/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.h"
#include "tensor/kernels/kernel_scalar.h"
#include "util/logging.h"

namespace con::tensor::kernels {

// Defined in kernel_avx2.cpp; returns nullptr when AVX2 is not compiled
// into this binary (not an x86 target).
const KernelTable* avx2_table();

namespace {

// The pre-dispatch crossover (gemm.cpp PR 2): below this M·N·K the scalar
// loops beat pack+dispatch. Kept for the scalar table so default-build
// dispatch decisions are unchanged.
constexpr Index kScalarSmallGemmFlops = 1 << 15;

const KernelTable* scalar_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::kScalar;
    k.small_gemm_flops = kScalarSmallGemmFlops;
    k.nn_4x8 = &scalar::nn_4x8;
    k.nt_2x8 = &scalar::nt_2x8;
    k.axpy = &scalar::axpy;
    k.axpy_out = &scalar::axpy_out;
    k.add = &scalar::add;
    k.sub = &scalar::sub;
    k.mul = &scalar::mul;
    k.scale = &scalar::scale;
    k.clamp = &scalar::clamp;
    k.relu = &scalar::relu;
    k.sign = &scalar::sign;
    k.relu_bwd = &scalar::relu_bwd;
    k.relu_mask = &scalar::relu_mask;
    k.tail_bwd = &scalar::tail_bwd;
    k.pack_row = &scalar::pack_row8;
    k.lower_strip = &scalar::lower_strip8;
    k.lower_strip_int8 = &scalar::lower_strip16_int8;
    k.fake_quant = &scalar::fake_quant;
    k.maxpool2x2 = &scalar::maxpool2x2;
    k.int8_4x16 = &scalar::int8_4x16;
    k.quant_i8 = &scalar::quant_i8;
    k.requant_col_bias = &scalar::requant_col_bias;
    k.requant_row_bias = &scalar::requant_row_bias;
    return k;
  }();
  return &t;
}

// The table for `isa`, or nullptr when this build or host cannot run it.
const KernelTable* runnable_table(Isa isa) {
  if (isa == Isa::kScalar) return scalar_table();
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    return avx2_table();
  }
#endif
  return nullptr;
}

std::atomic<const KernelTable*> g_active{nullptr};

void count_fallback() {
  static obs::Counter& c = obs::counter("gemm.dispatch.fallback");
  c.add(1);
}

const KernelTable* resolve_initial() {
  return runnable_table(resolve_env_request(std::getenv("CON_KERNEL")));
}

}  // namespace

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

bool isa_supported(Isa isa) { return runnable_table(isa) != nullptr; }

Isa parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  throw std::invalid_argument("unknown kernel ISA '" + name +
                              "' (expected scalar|avx2)");
}

Isa resolve_env_request(const char* value) {
  if (value == nullptr || value[0] == '\0') return Isa::kScalar;
  Isa want;
  try {
    want = parse_isa(value);
  } catch (const std::invalid_argument&) {
    util::log_warn("CON_KERNEL=%s is not scalar|avx2; using scalar", value);
    count_fallback();
    return Isa::kScalar;
  }
  if (!isa_supported(want)) {
    util::log_warn(
        "CON_KERNEL=%s requested but this host/build cannot run it; "
        "falling back to scalar kernels",
        value);
    count_fallback();
    return Isa::kScalar;
  }
  return want;
}

const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = resolve_initial();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Isa active_isa() { return active().isa; }

Isa set_isa(Isa isa) {
  if (!isa_supported(isa)) {
    util::log_warn(
        "kernel ISA '%s' is not available on this host/build; "
        "falling back to scalar kernels",
        isa_name(isa));
    count_fallback();
    isa = Isa::kScalar;
  }
  g_active.store(runnable_table(isa), std::memory_order_release);
  return isa;
}

}  // namespace con::tensor::kernels
