// Regression tests for the Parameter-version / packed-weights contract:
// every compression transform (pruner mask refresh, transform attach/strip,
// checkpoint load, optimizer step) writes through a Parameter mutator that
// bumps the version, so the GEMM layers repack their weight panels instead
// of serving stale ones. Each test drives a real forward (which packs),
// applies the transform, drives another forward, and asserts both that the
// repack counter advanced and that the outputs actually reflect the new
// weights.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compress/fixed_point.h"
#include "compress/pruner.h"
#include "compress/quant_activation.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace con {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

std::uint64_t repacks() {
  return obs::counter("packed_cache.repack").value();
}

bool outputs_differ(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return true;
  for (Index i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return true;
  }
  return false;
}

nn::Sequential small_model(std::uint64_t seed) {
  return models::make_lenet5_small(seed);
}

TEST(PackedCacheInvalidation, PrunerAttachAndUpdateMasksRepack) {
  nn::Sequential m = small_model(11);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 7);
  const Tensor y0 = m.forward(x, false);  // packs every GEMM layer

  const std::uint64_t before_attach = repacks();
  compress::DnsPruner pruner(m, compress::DnsConfig{.target_density = 0.4});
  const Tensor y1 = m.forward(x, false);
  EXPECT_GT(repacks(), before_attach)
      << "mask attach must invalidate the packed panels";
  EXPECT_TRUE(outputs_differ(y0, y1))
      << "pruning 60% of the weights must change the output";

  // Grow a masked weight so the next mask refresh flips its gate, then
  // verify the refresh repacks and the output reflects the regrown weight.
  nn::Parameter* w = nullptr;
  Index masked = -1;
  for (nn::Parameter* p : m.parameters()) {
    if (!p->has_mask()) continue;
    for (Index i = 0; i < p->mask().numel(); ++i) {
      if (p->mask()[i] == 0.0f) {
        w = p;
        masked = i;
        break;
      }
    }
    if (w != nullptr) break;
  }
  ASSERT_NE(w, nullptr);
  w->edit([&](Tensor& v, Tensor&) { v[masked] = 1e3f; });
  pruner.update_masks();
  ASSERT_EQ(w->mask()[masked], 1.0f);

  const std::uint64_t before_update = repacks();
  const Tensor y2 = m.forward(x, false);
  EXPECT_GT(repacks(), before_update)
      << "update_masks must invalidate the packed panels";
  EXPECT_TRUE(outputs_differ(y1, y2));
}

TEST(PackedCacheInvalidation, TransformAttachInPlaceRepacks) {
  nn::Sequential m = small_model(12);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 8);
  const Tensor y0 = m.forward(x, false);

  // Attach a coarse fixed-point weight transform in place.
  const auto fmt = compress::FixedPointFormat::paper_format(3);
  for (nn::Parameter* p : m.parameters()) {
    if (!p->compressible) continue;
    p->set_transform(
        std::make_shared<compress::FixedPointWeightTransform>(fmt));
  }
  const std::uint64_t before = repacks();
  const Tensor y1 = m.forward(x, false);
  EXPECT_GT(repacks(), before);
  EXPECT_TRUE(outputs_differ(y0, y1))
      << "3-bit weights must change the output";

  // Strip the transforms again (the strip_quantization pattern): panels
  // must be rebuilt from the raw weights and the output must return to the
  // float baseline.
  for (nn::Parameter* p : m.parameters()) {
    if (p->transform()) p->set_transform(nullptr);
  }
  const std::uint64_t before_strip = repacks();
  const Tensor y2 = m.forward(x, false);
  EXPECT_GT(repacks(), before_strip);
  EXPECT_FALSE(outputs_differ(y0, y2))
      << "stripping the transform must restore the float forward bit-exactly";
}

TEST(PackedCacheInvalidation, StripQuantizationModelForwardMatchesBaseline) {
  nn::Sequential base = small_model(13);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 9);
  const Tensor y_base = base.forward(x, false);

  nn::Sequential q = compress::quantize_model(
      base, compress::QuantizeOptions{
                .format = compress::FixedPointFormat::paper_format(4)});
  const Tensor y_q = q.forward(x, false);  // packs the quantized panels
  EXPECT_TRUE(outputs_differ(y_base, y_q));

  nn::Sequential stripped = compress::strip_quantization(q);
  const Tensor y_s = stripped.forward(x, false);
  EXPECT_FALSE(outputs_differ(y_base, y_s))
      << "strip_quantization must drop the quantized panels with the "
         "transforms";
}

TEST(PackedCacheInvalidation, CheckpointLoadRepacks) {
  const std::string path =
      ::testing::TempDir() + "/packed_cache_ckpt_test.conm";
  nn::Sequential donor = small_model(14);
  io::save_model(donor, path);

  nn::Sequential m = small_model(15);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 10);
  const Tensor y0 = m.forward(x, false);
  const Tensor y_donor = donor.forward(x, false);

  const std::uint64_t before = repacks();
  io::load_model_into(m, path);
  const Tensor y1 = m.forward(x, false);
  EXPECT_GT(repacks(), before)
      << "checkpoint load must invalidate the packed panels";
  EXPECT_TRUE(outputs_differ(y0, y1));
  EXPECT_FALSE(outputs_differ(y_donor, y1))
      << "after the load the model must compute with the donor's weights";
  std::remove(path.c_str());
}

TEST(PackedCacheInvalidation, CheckpointRoundTripsFullParameterState) {
  // The store serves compressed variants purely from checkpoints, so a
  // round trip must reproduce the complete parameter state — values, masks,
  // per-parameter transforms — and honour the version contract on load.
  const std::string path =
      ::testing::TempDir() + "/packed_cache_full_state.conm";
  nn::Sequential donor = small_model(18);
  compress::DnsPruner pruner(donor,
                             compress::DnsConfig{.target_density = 0.5});
  std::vector<nn::Parameter*> compressible;
  for (nn::Parameter* p : donor.parameters()) {
    if (p->compressible) compressible.push_back(p);
  }
  ASSERT_GE(compressible.size(), 2u);
  compressible[0]->set_transform(
      std::make_shared<compress::FixedPointWeightTransform>(
          compress::FixedPointFormat::paper_format(8)));
  compressible[1]->set_transform(
      std::make_shared<compress::FixedPointWeightTransform>(
          compress::FixedPointFormat::paper_format(4)));
  io::save_model(donor, path);

  nn::Sequential m = small_model(19);
  std::vector<std::uint64_t> versions_before;
  for (nn::Parameter* p : m.parameters()) {
    versions_before.push_back(p->version());
  }
  io::load_model_into(m, path);

  auto dp = donor.parameters();
  auto mp = m.parameters();
  ASSERT_EQ(dp.size(), mp.size());
  for (std::size_t i = 0; i < dp.size(); ++i) {
    EXPECT_GT(mp[i]->version(), versions_before[i])
        << "load must bump every parameter version";
    for (Index j = 0; j < dp[i]->value().numel(); ++j) {
      ASSERT_EQ(dp[i]->value()[j], mp[i]->value()[j]);
    }
    ASSERT_EQ(dp[i]->has_mask(), mp[i]->has_mask());
    if (dp[i]->has_mask()) {
      for (Index j = 0; j < dp[i]->mask().numel(); ++j) {
        ASSERT_EQ(dp[i]->mask()[j], mp[i]->mask()[j]);
      }
    }
    ASSERT_EQ(dp[i]->transform() != nullptr, mp[i]->transform() != nullptr);
    if (dp[i]->transform() != nullptr) {
      EXPECT_EQ(dp[i]->transform()->describe(),
                mp[i]->transform()->describe());
    }
  }
  // The effective forwards (masks + transforms applied through the packed
  // panels) must agree bit-exactly.
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 13);
  EXPECT_FALSE(outputs_differ(donor.forward(x, false), m.forward(x, false)));

  // v3 headers are self-describing: inspectable without a model.
  const io::CheckpointInfo info = io::read_checkpoint_info(path);
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.model_name, donor.name());
  EXPECT_EQ(info.topology_hash.hex(), io::topology_signature(m).hex());
  EXPECT_FALSE(info.payload_hash.is_zero());
  std::remove(path.c_str());
}

TEST(PackedCacheInvalidation, CorruptCheckpointPayloadFailsLoudly) {
  const std::string path = ::testing::TempDir() + "/packed_cache_corrupt.conm";
  nn::Sequential donor = small_model(20);
  io::save_model(donor, path);
  // Flip one byte near the end of the payload (well past the header).
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(-5, std::ios::end);
    char b = 0;
    f.read(&b, 1);
    f.seekp(-5, std::ios::end);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  nn::Sequential m = small_model(21);
  EXPECT_THROW(io::load_model_into(m, path), std::runtime_error)
      << "bit rot must fail the payload hash check, not half-load";
  std::remove(path.c_str());
}

TEST(PackedCacheInvalidation, OptimizerStepRepacks) {
  nn::Sequential m = small_model(16);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 11);
  const Tensor y0 = m.forward(x, false);

  for (nn::Parameter* p : m.parameters()) p->grad.fill(0.5f);
  nn::Sgd sgd(m.parameters(), nn::SgdConfig{.learning_rate = 0.1f});
  sgd.step();

  const std::uint64_t before = repacks();
  const Tensor y1 = m.forward(x, false);
  EXPECT_GT(repacks(), before)
      << "an optimizer step must invalidate the packed panels";
  EXPECT_TRUE(outputs_differ(y0, y1));
}

// Every Parameter mutator, applied once to one layer's weight, costs
// exactly one repack: the next forward rebuilds that layer's panels (and
// computes with the new weights), the one after reuses them.
TEST(PackedCacheInvalidation, EachMutatorRepacksExactlyOnce) {
  const auto fmt = compress::FixedPointFormat::paper_format(3);
  const std::vector<
      std::pair<const char*, std::function<void(nn::Parameter&)>>>
      mutators = {
          {"set_value",
           [](nn::Parameter& w) {
             w.set_value(Tensor(w.value().shape(), 0.5f));
           }},
          {"set_mask",
           [](nn::Parameter& w) {
             Tensor mask(w.value().shape(), 1.0f);
             mask[0] = 0.0f;
             w.set_mask(std::move(mask));
           }},
          {"set_transform",
           [&](nn::Parameter& w) {
             w.set_transform(
                 std::make_shared<compress::FixedPointWeightTransform>(fmt));
           }},
          {"edit",
           [](nn::Parameter& w) {
             w.edit([](Tensor& v, Tensor&) { v[0] += 1.0f; });
           }},
      };
  Tensor x = random_batch(Shape{2, 6}, 14);
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    util::Rng rng(22);
    nn::Sequential m("m");
    auto& fc = m.emplace<nn::Linear>(6, 4, rng, "fc");
    const Tensor y0 = m.forward(x, false);  // cold pack

    const std::uint64_t before = repacks();
    mutate(fc.weight());
    const Tensor y1 = m.forward(x, false);
    EXPECT_EQ(repacks(), before + 1);
    EXPECT_TRUE(outputs_differ(y0, y1));
    (void)m.forward(x, false);
    EXPECT_EQ(repacks(), before + 1);
  }
}

TEST(PackedCacheInvalidation, UnchangedParameterDoesNotRepack) {
  nn::Sequential m = small_model(17);
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 12);
  (void)m.forward(x, false);  // cold pack

  const std::uint64_t before = repacks();
  (void)m.forward(x, false);
  // Reading a parameter through any accessor is not a write.
  Tensor gate;
  for (const nn::Parameter* p : m.parameters()) {
    (void)p->value();
    (void)p->mask();
    (void)p->transform();
    (void)p->version();
    (void)p->effective(gate);
  }
  (void)m.forward(x, false);
  EXPECT_EQ(repacks(), before)
      << "repeated forwards against frozen weights must reuse the panels";
}

}  // namespace
}  // namespace con
