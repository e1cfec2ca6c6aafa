// Micro-benchmarks for the substrate operations: tensor algebra, layer
// forward/backward, compression transforms and attack inner loops. These
// are google-benchmark timings, not figure reproductions — use them to spot
// performance regressions in the kernels the study spends its time in.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "attacks/attack.h"
#include "compress/fixed_point.h"
#include "compress/integer_model.h"
#include "compress/pruner.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "oracles/integer_exec.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "util/rng.h"

using namespace con;
using tensor::Shape;
using tensor::Tensor;

namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t{std::move(shape)};
  tensor::fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

void BM_MatmulSquare(benchmark::State& state) {
  const auto n = state.range(0);
  Tensor a = random_tensor({n, n}, 1);
  Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulSparseA(benchmark::State& state) {
  // Pruned weight matrices hit the zero-skip path in matmul_nn.
  const auto n = state.range(0);
  Tensor a = random_tensor({n, n}, 3);
  // zero out 90%
  util::Rng rng(4);
  for (float& v : a.flat()) {
    if (rng.uniform() < 0.9) v = 0.0f;
  }
  Tensor b = random_tensor({n, n}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(a, b));
  }
}
BENCHMARK(BM_MatmulSparseA)->Arg(128)->Arg(256);

// ---- GEMM kernels at real layer shapes --------------------------------------
// Each shape runs as Gemm<Kind>/scalar (the pre-blocking reference loops)
// and Gemm<Kind>/blocked (the packed kernels, weights pre-packed the way
// the layer cache holds them). The bench-smoke target captures both into
// BENCH_gemm.json, so the before/after ratio ships with the repo.
//
// Shapes: [M, K, N] of the forward GEMM.
//   lenet5 fc1:     out[50·4·4 → 500] as y = x·Wᵀ,  M=N_batch? — we bench
//                   the conv layout: out[outC, N·P] = W[outC, CKK]·cols.
//   cifarnet conv2: W[32, 288] · cols[288, 32·1024]  (batch 32, 32×32)
//   cifarnet conv3: W[64, 288] · cols[288, 32·256]   (after pool, 16×16)
//   lenet5 conv2:   W[50, 500] · cols[500, 32·64]    (batch 32, 8×8)

struct GemmShape {
  tensor::Index m, k, n;
};

GemmShape gemm_shape_for(int idx) {
  switch (idx) {
    case 0: return {32, 288, 32 * 1024};  // cifarnet conv2
    case 1: return {64, 288, 32 * 256};   // cifarnet conv3
    default: return {50, 500, 32 * 64};   // lenet5 conv2
  }
}

void BM_GemmNnScalar(benchmark::State& state) {
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 20);
  Tensor b = random_tensor({s.k, s.n}, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::reference_nn(a, b));
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k * s.n);
}
BENCHMARK(BM_GemmNnScalar)->Arg(0)->Arg(1)->Arg(2);

void BM_GemmNnBlocked(benchmark::State& state) {
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 20);
  Tensor b = random_tensor({s.k, s.n}, 21);
  // Weights pre-packed, as the Linear/Conv2d cache holds them mid-attack.
  const auto pa = tensor::gemm::pack_rowmajor(a, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(pa, b));
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k * s.n);
}
BENCHMARK(BM_GemmNnBlocked)->Arg(0)->Arg(1)->Arg(2);

// Forces a SIMD kernel table for the duration of the benchmark; skips (with
// an explanatory error string, so the JSON records why) on hosts that
// cannot execute the ISA. The blocked structure, packing and zero-skip
// lists are identical to the scalar run — only the micro-kernel changes.
bool force_isa_or_skip(benchmark::State& state, tensor::kernels::Isa isa) {
  if (!tensor::kernels::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host/build");
    return false;
  }
  return true;
}

void BM_GemmNnBlockedAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 20);
  Tensor b = random_tensor({s.k, s.n}, 21);
  const auto pa = tensor::gemm::pack_rowmajor(a, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(pa, b));
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k * s.n);
}
BENCHMARK(BM_GemmNnBlockedAvx2)->Arg(0)->Arg(1)->Arg(2);

void BM_GemmNnSparseScalar(benchmark::State& state) {
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 22);
  util::Rng rng(23);
  for (float& v : a.flat()) {
    if (rng.uniform() < 0.9) v = 0.0f;  // 90% pruned weights
  }
  Tensor b = random_tensor({s.k, s.n}, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::reference_nn(a, b));
  }
}
BENCHMARK(BM_GemmNnSparseScalar)->Arg(0)->Arg(2);

void BM_GemmNnSparseBlocked(benchmark::State& state) {
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 22);
  util::Rng rng(23);
  for (float& v : a.flat()) {
    if (rng.uniform() < 0.9) v = 0.0f;
  }
  Tensor b = random_tensor({s.k, s.n}, 24);
  const auto pa = tensor::gemm::pack_rowmajor(a, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(pa, b));
  }
}
BENCHMARK(BM_GemmNnSparseBlocked)->Arg(0)->Arg(2);

void BM_GemmNnSparseBlockedAvx2(benchmark::State& state) {
  // 90% pruned A takes the sparse row-axpy path through the AVX2 table.
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  const GemmShape s = gemm_shape_for(static_cast<int>(state.range(0)));
  Tensor a = random_tensor({s.m, s.k}, 22);
  util::Rng rng(23);
  for (float& v : a.flat()) {
    if (rng.uniform() < 0.9) v = 0.0f;
  }
  Tensor b = random_tensor({s.k, s.n}, 24);
  const auto pa = tensor::gemm::pack_rowmajor(a, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nn(pa, b));
  }
}
BENCHMARK(BM_GemmNnSparseBlockedAvx2)->Arg(0)->Arg(2);

void BM_GemmNtScalar(benchmark::State& state) {
  // Linear forward at LeNet5 fc1: y[32, 500] = x[32, 800] · W[500, 800]ᵀ.
  Tensor x = random_tensor({32, 800}, 25);
  Tensor w = random_tensor({500, 800}, 26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::reference_nt(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 800 * 500);
}
BENCHMARK(BM_GemmNtScalar);

void BM_GemmNtBlocked(benchmark::State& state) {
  Tensor x = random_tensor({32, 800}, 25);
  Tensor w = random_tensor({500, 800}, 26);
  const auto pw = tensor::gemm::pack_rowmajor(w, tensor::gemm::kStripB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nt(x, pw));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 800 * 500);
}
BENCHMARK(BM_GemmNtBlocked);

void BM_GemmNtBlockedAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  Tensor x = random_tensor({32, 800}, 25);
  Tensor w = random_tensor({500, 800}, 26);
  const auto pw = tensor::gemm::pack_rowmajor(w, tensor::gemm::kStripB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_nt(x, pw));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 800 * 500);
}
BENCHMARK(BM_GemmNtBlockedAvx2);

void BM_GemmTnScalar(benchmark::State& state) {
  // The cifarnet conv2 input-gradient product Wᵀ[288, 32] · go[32, 8192]
  // (gemm::conv2d_tn computes it one image at a time).
  Tensor w = random_tensor({32, 288}, 27);
  Tensor go = random_tensor({32, 8192}, 28);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::reference_tn(w, go));
  }
  state.SetItemsProcessed(state.iterations() * 288 * 32 * 8192);
}
BENCHMARK(BM_GemmTnScalar);

void BM_GemmTnBlocked(benchmark::State& state) {
  Tensor w = random_tensor({32, 288}, 27);
  Tensor go = random_tensor({32, 8192}, 28);
  const auto pw = tensor::gemm::pack_colmajor(w, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_tn(pw, go));
  }
  state.SetItemsProcessed(state.iterations() * 288 * 32 * 8192);
}
BENCHMARK(BM_GemmTnBlocked);

void BM_GemmTnBlockedAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  Tensor w = random_tensor({32, 288}, 27);
  Tensor go = random_tensor({32, 8192}, 28);
  const auto pw = tensor::gemm::pack_colmajor(w, tensor::gemm::kStripA);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gemm::matmul_tn(pw, go));
  }
  state.SetItemsProcessed(state.iterations() * 288 * 32 * 8192);
}
BENCHMARK(BM_GemmTnBlockedAvx2);

// ---- Deployed int8 backend at CifarNet shapes -------------------------------
// The bench-smoke target captures the Int8*/FakeQuant* cases into
// BENCH_int8.json: the deployed integer forward (int8 codes, int32
// accumulate, requantise — nn/*::forward_int8 via compress::integer_forward)
// against the two fake-quant float forms it replaces — the simulated model
// (quantize_model graph, float GEMM + QuantActivation snapping) and the
// naive integer-exec reference loop the backend is verified against.
//
// Shapes: CifarNet fc1 (batch 32: [32, 4096] · W[300, 4096]ᵀ) and CifarNet
// conv2b (batch 8: W[64, 576] · cols[576, 8·256] on 16×16 images).

constexpr tensor::Index kFcBatch = 32, kFcIn = 64 * 8 * 8, kFcOut = 300;
constexpr tensor::Index kConvBatch = 8, kConvC = 64, kConvHw = 16;

// Single quantised layer wrapped the way the study builds its 8-bit
// variants: weights snapped by FixedPointWeightTransform, activations
// gated by QuantActivation — simultaneously the fake-quant float model and
// (being <= 8 bit) an integer-executable one.
nn::Sequential quantized_fc_model() {
  util::Rng rng(31);
  nn::Sequential m("bench-int8-fc");
  m.emplace<nn::Linear>(kFcIn, kFcOut, rng, "fc1");
  return compress::quantize_model(
      std::move(m),
      compress::QuantizeOptions{
          .format = compress::FixedPointFormat::paper_format(8),
          .quantize_activations = true});
}

nn::Sequential quantized_conv_model() {
  util::Rng rng(32);
  nn::Sequential m("bench-int8-conv");
  m.emplace<nn::Conv2d>(
      nn::Conv2dSpec{.in_channels = kConvC, .out_channels = kConvC,
                     .kernel = 3, .padding = 1},
      rng, "conv2b");
  return compress::quantize_model(
      std::move(m),
      compress::QuantizeOptions{
          .format = compress::FixedPointFormat::paper_format(8),
          .quantize_activations = true});
}

Tensor fc_input() { return random_tensor({kFcBatch, kFcIn}, 33); }
Tensor conv_input() {
  return random_tensor({kConvBatch, kConvC, kConvHw, kConvHw}, 34);
}

void run_int8_forward(benchmark::State& state, nn::Sequential& model,
                      const Tensor& x, std::int64_t macs) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::integer_forward(model, x));
  }
  state.SetItemsProcessed(state.iterations() * macs);
}

void run_float_forward(benchmark::State& state, nn::Sequential& model,
                       const Tensor& x, std::int64_t macs) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * macs);
}

constexpr std::int64_t kFcMacs =
    static_cast<std::int64_t>(kFcBatch) * kFcIn * kFcOut;
constexpr std::int64_t kConvMacs = static_cast<std::int64_t>(kConvBatch) *
                                   kConvC * kConvHw * kConvHw * kConvC * 9;

void BM_Int8FcForward(benchmark::State& state) {
  nn::Sequential m = quantized_fc_model();
  const Tensor x = fc_input();
  run_int8_forward(state, m, x, kFcMacs);
}
BENCHMARK(BM_Int8FcForward);

void BM_Int8FcForwardAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  nn::Sequential m = quantized_fc_model();
  const Tensor x = fc_input();
  run_int8_forward(state, m, x, kFcMacs);
}
BENCHMARK(BM_Int8FcForwardAvx2);

void BM_FakeQuantFcForward(benchmark::State& state) {
  nn::Sequential m = quantized_fc_model();
  const Tensor x = fc_input();
  run_float_forward(state, m, x, kFcMacs);
}
BENCHMARK(BM_FakeQuantFcForward);

void BM_FakeQuantFcForwardAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  nn::Sequential m = quantized_fc_model();
  const Tensor x = fc_input();
  run_float_forward(state, m, x, kFcMacs);
}
BENCHMARK(BM_FakeQuantFcForwardAvx2);

void BM_FakeQuantFcReference(benchmark::State& state) {
  // The integer-exec module's own fake-quant float loop — the semantic
  // oracle, double accumulation, no blocking.
  const auto fmt = compress::FixedPointFormat::paper_format(8);
  const Tensor w = compress::fixed_point_quantize(
      random_tensor({kFcOut, kFcIn}, 35), fmt);
  const Tensor b = random_tensor({kFcOut}, 36);
  const Tensor x = fc_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compress::fake_quant_linear_forward(w, b, fmt, fmt, x));
  }
  state.SetItemsProcessed(state.iterations() * kFcMacs);
}
BENCHMARK(BM_FakeQuantFcReference);

void BM_Int8ConvForward(benchmark::State& state) {
  nn::Sequential m = quantized_conv_model();
  const Tensor x = conv_input();
  run_int8_forward(state, m, x, kConvMacs);
}
BENCHMARK(BM_Int8ConvForward);

void BM_Int8ConvForwardAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  nn::Sequential m = quantized_conv_model();
  const Tensor x = conv_input();
  run_int8_forward(state, m, x, kConvMacs);
}
BENCHMARK(BM_Int8ConvForwardAvx2);

void BM_FakeQuantConvForward(benchmark::State& state) {
  nn::Sequential m = quantized_conv_model();
  const Tensor x = conv_input();
  run_float_forward(state, m, x, kConvMacs);
}
BENCHMARK(BM_FakeQuantConvForward);

void BM_FakeQuantConvForwardAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  nn::Sequential m = quantized_conv_model();
  const Tensor x = conv_input();
  run_float_forward(state, m, x, kConvMacs);
}
BENCHMARK(BM_FakeQuantConvForwardAvx2);

// Int8 GEMM throughput at the float GEMM shapes, for kernel-level
// comparison with BM_GemmNnBlocked* (same strips, int16/int8 panels, int32
// accumulators). Both operands are packed once, outside the timed loop:
// the only unpacked int8 right operand left is a conv input, which
// conv2d_int8 lowers panel by panel.
void run_int8_gemm(benchmark::State& state, const GemmShape& s) {
  util::Rng rng(37);
  std::vector<std::int8_t> acodes(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::int8_t> bcodes(static_cast<std::size_t>(s.k * s.n));
  for (auto& v : acodes) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.f) - 128);
  }
  for (auto& v : bcodes) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.f) - 128);
  }
  const auto pa = tensor::gemm::pack_int8_a(acodes.data(), s.m, s.k);
  const auto pb = tensor::gemm::pack_int8_b(bcodes.data(), s.n, s.k);
  std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
  for (auto _ : state) {
    tensor::gemm::matmul_int8(pa, pb, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k * s.n);
}

void BM_Int8Gemm(benchmark::State& state) {
  run_int8_gemm(state, gemm_shape_for(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Int8Gemm)->Arg(0)->Arg(1)->Arg(2);

void BM_Int8GemmAvx2(benchmark::State& state) {
  if (!force_isa_or_skip(state, tensor::kernels::Isa::kAvx2)) return;
  tensor::kernels::ScopedIsa scoped(tensor::kernels::Isa::kAvx2);
  run_int8_gemm(state, gemm_shape_for(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Int8GemmAvx2)->Arg(0)->Arg(1)->Arg(2);

void BM_LeNetForward(benchmark::State& state) {
  nn::Sequential m = models::make_lenet5_small(7);
  Tensor x = random_tensor({static_cast<tensor::Index>(state.range(0)), 1, 28,
                            28},
                           8);
  tensor::clamp_inplace(x, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeNetForward)->Arg(1)->Arg(16);

void BM_LeNetForwardBackward(benchmark::State& state) {
  nn::Sequential m = models::make_lenet5_small(9);
  Tensor x = random_tensor({16, 1, 28, 28}, 10);
  tensor::clamp_inplace(x, 0.0f, 1.0f);
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 10);
  for (auto _ : state) {
    m.zero_grad();
    Tensor logits = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    benchmark::DoNotOptimize(m.backward(loss.grad_logits));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_LeNetForwardBackward);

void BM_FixedPointQuantizeTensor(benchmark::State& state) {
  Tensor w = random_tensor({static_cast<tensor::Index>(state.range(0))}, 11);
  const auto fmt = compress::FixedPointFormat::paper_format(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::fixed_point_quantize(w, fmt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FixedPointQuantizeTensor)->Arg(1 << 14)->Arg(1 << 18);

void BM_DnsMaskUpdate(benchmark::State& state) {
  nn::Sequential m = models::make_lenet5_small(12);
  compress::DnsPruner pruner(m, compress::DnsConfig{.target_density = 0.3});
  for (auto _ : state) {
    pruner.update_masks();
  }
}
BENCHMARK(BM_DnsMaskUpdate);

void BM_FgsmBatch(benchmark::State& state) {
  nn::Sequential m = models::make_lenet5_small(13);
  Tensor x = random_tensor({8, 1, 28, 28}, 14);
  tensor::clamp_inplace(x, 0.0f, 1.0f);
  std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  const attacks::AttackParams p{.epsilon = 0.02f, .iterations = 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::run_attack_batched(
        attacks::AttackKind::kIfgsm, m, x, labels, p));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_FgsmBatch);

void BM_DeepFoolSingle(benchmark::State& state) {
  nn::Sequential m = models::make_lenet5_small(15);
  Tensor x = random_tensor({1, 1, 28, 28}, 16);
  tensor::clamp_inplace(x, 0.0f, 1.0f);
  std::vector<int> labels = {3};
  const attacks::AttackParams p{.epsilon = 0.02f, .iterations = 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::deepfool(m, x, labels, p));
  }
}
BENCHMARK(BM_DeepFoolSingle);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags (--trace,
// --manifest, --telemetry, ...) are parsed out of argv before
// benchmark::Initialize sees it.
int main(int argc, char** argv) {
  con::bench::BenchSetup setup = con::bench::parse_benchmark_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  con::bench::finish_run(setup, "bench_micro_ops");
  return 0;
}
