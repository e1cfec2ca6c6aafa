#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compress/fixed_point.h"
#include "compress/pruner.h"
#include "compress/quant_activation.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "store/hash.h"
#include "tensor/random.h"
#include "test_helpers.h"

namespace con::io {
namespace {

using con::testing::random_batch;
using tensor::Shape;
using tensor::Tensor;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/con_io_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".bin";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(IoTest, ModelRoundTripPreservesWeights) {
  nn::Sequential a = models::make_lenet5_small(1);
  save_model(a, path_);
  nn::Sequential b = models::make_lenet5_small(2);  // different init
  load_model_into(b, path_);
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (tensor::Index j = 0; j < pa[i]->value().numel(); ++j) {
      ASSERT_EQ(pa[i]->value()[j], pb[i]->value()[j]);
    }
  }
}

TEST_F(IoTest, MasksSurviveRoundTrip) {
  nn::Sequential a = models::make_lenet5_small(3);
  compress::DnsPruner pruner(a, compress::DnsConfig{.target_density = 0.4});
  save_model(a, path_);
  nn::Sequential b = models::make_lenet5_small(4);
  load_model_into(b, path_);
  EXPECT_NEAR(b.density(), a.density(), 1e-9);
  auto pa = a.parameters();
  auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->has_mask(), pb[i]->has_mask());
    if (pa[i]->has_mask()) {
      for (tensor::Index j = 0; j < pa[i]->mask().numel(); ++j) {
        ASSERT_EQ(pa[i]->mask()[j], pb[i]->mask()[j]);
      }
    }
  }
}

TEST_F(IoTest, LoadingIntoWrongArchitectureThrows) {
  nn::Sequential a = models::make_lenet5_small(5);
  save_model(a, path_);
  nn::Sequential wrong = models::make_cifarnet_small(5);
  EXPECT_THROW(load_model_into(wrong, path_), std::runtime_error);
}

TEST_F(IoTest, CorruptMagicRejected) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "NOTACKPT_________";
  }
  nn::Sequential m = models::make_lenet5_small(6);
  EXPECT_THROW(load_model_into(m, path_), std::runtime_error);
}

TEST_F(IoTest, TruncatedFileRejected) {
  nn::Sequential a = models::make_lenet5_small(7);
  save_model(a, path_);
  std::filesystem::resize_file(path_, 40);
  nn::Sequential b = models::make_lenet5_small(8);
  EXPECT_THROW(load_model_into(b, path_), std::runtime_error);
}

template <typename T>
void append_pod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_string(std::string& out, const std::string& s) {
  append_pod(out, static_cast<std::uint64_t>(s.size()));
  out += s;
}

// `model`'s parameters in checkpoint payload layout, unmasked, with the
// transform record `record` (kind byte and fields) on the first parameter
// and kind 0 (none) on the rest.
std::string payload_with_record(nn::Sequential& model,
                                const std::string& record) {
  std::string out;
  const auto params = model.parameters();
  append_pod(out, static_cast<std::uint64_t>(params.size()));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& v = params[i]->value();
    append_string(out, params[i]->name);
    append_pod(out, static_cast<std::uint32_t>(v.rank()));
    for (tensor::Index d : v.shape().dims()) {
      append_pod(out, static_cast<std::int64_t>(d));
    }
    out.append(reinterpret_cast<const char*>(v.data()),
               static_cast<std::size_t>(v.numel()) * sizeof(float));
    append_pod(out, std::uint8_t{0});  // no mask
    if (i == 0) {
      out += record;
    } else {
      append_pod(out, std::uint8_t{0});
    }
  }
  return out;
}

void write_text(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A version-3 checkpoint of `model`, built by hand with a correct payload
// hash, carrying the transform record `record` (kind byte and fields) on
// the first parameter.
std::string v3_checkpoint(nn::Sequential& model, const std::string& record) {
  const std::string payload = payload_with_record(model, record);
  const store::Hash payload_hash =
      store::hash_bytes(payload.data(), payload.size());
  const store::Hash topology = topology_signature(model);
  std::string file = "CONM";
  append_pod(file, std::uint32_t{3});
  append_string(file, model.name());
  file.append(reinterpret_cast<const char*>(payload_hash.bytes.data()),
              payload_hash.bytes.size());
  file.append(reinterpret_cast<const char*>(topology.bytes.data()),
              topology.bytes.size());
  append_pod(file, static_cast<std::uint64_t>(payload.size()));
  return file + payload;
}

// Writes a checkpoint of `model` with a fixed-point transform record `fmt`
// on the first parameter.
void write_with_fixed_point(nn::Sequential& model, const std::string& path,
                            compress::FixedPointFormat fmt) {
  std::string record;
  append_pod(record, std::uint8_t{1});
  append_pod(record, static_cast<std::int32_t>(fmt.total_bits));
  append_pod(record, static_cast<std::int32_t>(fmt.integer_bits));
  write_text(path, v3_checkpoint(model, record));
}

TEST_F(IoTest, FixedPointRecordIsValidated) {
  nn::Sequential m = models::make_lenet5_small(12);
  write_with_fixed_point(m, path_,
                         compress::FixedPointFormat::paper_format(8));
  load_model_into(m, path_);
  const auto* fp = dynamic_cast<const compress::FixedPointWeightTransform*>(
      m.parameters()[0]->transform().get());
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->format().total_bits, 8);
  for (compress::FixedPointFormat bad :
       {compress::FixedPointFormat{.total_bits = 200, .integer_bits = 4},
        compress::FixedPointFormat{.total_bits = 8, .integer_bits = 0},
        compress::FixedPointFormat{.total_bits = 8, .integer_bits = 8}}) {
    write_with_fixed_point(m, path_, bad);
    EXPECT_THROW(load_model_into(m, path_), std::runtime_error)
        << bad.total_bits << "/" << bad.integer_bits;
  }
}

TEST_F(IoTest, RetiredClusterRecordThrows) {
  // A v3 stream whose payload hash is correct, so the only fault is the
  // kind-2 (weight-clustering codebook) record: i32 bits | u64 k | f32[k].
  nn::Sequential m = models::make_lenet5_small(13);
  std::string record;
  append_pod(record, std::uint8_t{2});
  append_pod(record, std::int32_t{2});
  append_pod(record, std::uint64_t{4});
  for (float c : {-0.5f, 0.0f, 0.25f, 0.5f}) append_pod(record, c);
  write_text(path_, v3_checkpoint(m, record));
  const std::string payload = payload_with_record(m, record);
  EXPECT_EQ(read_checkpoint_info(path_).payload_hash,
            store::hash_bytes(payload.data(), payload.size()));
  EXPECT_THROW(load_model_into(m, path_), std::runtime_error);
}

TEST_F(IoTest, OnlyVersion3Loads) {
  // Versions 1 and 2 (no hashed header) are no longer read.
  nn::Sequential m = models::make_lenet5_small(14);
  std::string file = v3_checkpoint(m, std::string(1, '\0'));
  write_text(path_, file);
  load_model_into(m, path_);
  for (std::uint32_t version : {1u, 2u, 4u}) {
    std::memcpy(file.data() + 4, &version, sizeof(version));
    write_text(path_, file);
    EXPECT_THROW(load_model_into(m, path_), std::runtime_error) << version;
    EXPECT_THROW(read_checkpoint_info(path_), std::runtime_error) << version;
  }
}

TEST_F(IoTest, PayloadSizeBeyondFileRejected) {
  // A corrupt header's payload_size is checked against the file before the
  // payload buffer is allocated.
  nn::Sequential m = models::make_lenet5_small(15);
  std::string file = v3_checkpoint(m, std::string(1, '\0'));
  const std::size_t size_at = 4 + 4 + 8 + m.name().size() + 2 * 32;
  const std::uint64_t actual = file.size() - size_at - sizeof(std::uint64_t);
  for (std::uint64_t claimed : {actual + 1, std::uint64_t{1} << 62}) {
    std::memcpy(file.data() + size_at, &claimed, sizeof(claimed));
    write_text(path_, file);
    EXPECT_THROW(load_model_into(m, path_), std::runtime_error) << claimed;
  }
}

TEST_F(IoTest, TensorShapeBeyondFileRejected) {
  // Each dimension passes the per-dimension bound. [2^28, 2^28, 256] has
  // an element count that overflows int64 (Shape::numel() reads 0);
  // [1000, 1000] does not overflow, but 8 bytes of data follow, not 4 MB.
  for (const std::vector<std::int64_t>& dims :
       {std::vector<std::int64_t>{1 << 28, 1 << 28, 256},
        std::vector<std::int64_t>{1000, 1000}}) {
    std::string body;
    append_pod(body, static_cast<std::uint32_t>(dims.size()));
    for (std::int64_t d : dims) append_pod(body, d);
    append_pod(body, 1.0f);
    append_pod(body, 2.0f);
    write_text(path_, body);
    EXPECT_THROW(load_tensor(path_), std::runtime_error) << dims.size();
  }
}

TEST_F(IoTest, MissingFileThrows) {
  nn::Sequential m = models::make_lenet5_small(9);
  EXPECT_THROW(load_model_into(m, "/tmp/does_not_exist_con.bin"),
               std::runtime_error);
}

TEST_F(IoTest, TensorRoundTrip) {
  Tensor t = random_batch(Shape{3, 4, 5}, 10);
  save_tensor(t, path_);
  Tensor back = load_tensor(path_);
  ASSERT_EQ(back.shape(), t.shape());
  for (tensor::Index i = 0; i < t.numel(); ++i) ASSERT_EQ(back[i], t[i]);
}

TEST_F(IoTest, FileExists) {
  EXPECT_FALSE(file_exists(path_));
  nn::Sequential a = models::make_lenet5_small(11);
  save_model(a, path_);
  EXPECT_TRUE(file_exists(path_));
}

// ---- transform records (CheckpointV2: they arrived with version 2) --------

TEST(CheckpointV2, FixedPointTransformSurvivesRoundTrip) {
  nn::Sequential a = compress::quantize_model(
      models::make_lenet5_small(11),
      compress::QuantizeOptions{
          .format = compress::FixedPointFormat::paper_format(8),
          .quantize_activations = false});
  const std::string path = "/tmp/con_ckptv2_fp.bin";
  save_model(a, path);
  nn::Sequential b = models::make_lenet5_small(12);
  load_model_into(b, path);
  // the loaded model carries the transform and produces identical outputs
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 13);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (tensor::Index i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
  for (nn::Parameter* p : b.parameters()) {
    if (p->compressible) {
      EXPECT_NE(p->transform(), nullptr);
    }
  }
  std::filesystem::remove(path);
}

TEST(CheckpointV2, PlainModelHasNoTransformAfterLoad) {
  nn::Sequential a = models::make_lenet5_small(17);
  const std::string path = "/tmp/con_ckptv2_plain.bin";
  save_model(a, path);
  nn::Sequential b = compress::quantize_model(
      models::make_lenet5_small(18),
      compress::QuantizeOptions{
          .format = compress::FixedPointFormat::paper_format(4),
          .quantize_activations = false});
  // loading a plain checkpoint must CLEAR the stale transform
  load_model_into(b, path);
  for (nn::Parameter* p : b.parameters()) EXPECT_EQ(p->transform(), nullptr);
  std::filesystem::remove(path);
}

TEST(ArtifactsDir, CreatedAndWritable) {
  setenv("CON_ARTIFACTS_DIR", "/tmp/con_artifacts_test", 1);
  const std::string dir = artifacts_dir();
  EXPECT_TRUE(std::filesystem::exists(dir));
  unsetenv("CON_ARTIFACTS_DIR");
  std::filesystem::remove_all("/tmp/con_artifacts_test");
}

}  // namespace
}  // namespace con::io
