// Binary checkpoint format for model parameters and pruning masks.
//
// Training is the expensive step of the study on a CPU host, so sweeps
// train each model once and re-load the artifacts — today through the
// content-addressed store (src/store/), where a checkpoint may be served
// long after the code that wrote it has changed. Version 3 therefore makes
// every checkpoint self-describing and self-checking: the header carries a
// SHA-256 of the parameter payload (bit-rot and truncation fail loudly at
// load time instead of corrupting a sweep) and a topology signature (the
// hash of the parameter names/shapes the artifact expects), so a file
// identifies what it is without reference to the path it was found under.
//
// Layout (little-endian), version 3:
//   magic "CONM" | u32 version | u64 name_len | name bytes
//   u8 payload_sha256[32] | u8 topology_sha256[32] | u64 payload_size
//   payload:
//     u64 param_count
//     per parameter:
//       u64 name_len | name | u32 rank | i64 dims[rank] | f32 data[numel]
//       u8 has_mask | (f32 mask[numel] if has_mask)
//       u8 transform_kind | transform payload
//         kind 0: none
//         kind 1: fixed-point  (i32 total_bits | i32 integer_bits)
//       (Kind 2, a weight-clustering codebook, is retired: loading one
//       throws std::runtime_error.)
// Only version 3 loads; any other version throws std::runtime_error. So
// does a payload_size or a tensor shape that claims more bytes than the
// file holds, before anything is allocated for it.
#pragma once

#include <cstdint>
#include <string>

#include "nn/sequential.h"
#include "store/hash.h"
#include "tensor/tensor.h"

namespace con::io {

void save_model(nn::Sequential& model, const std::string& path);

// Loads parameter values/masks/transforms into an already-built `model` and
// adopts the stored model name. Throws if the payload hash does not match
// or the checkpoint's parameter names or shapes do not match the model.
void load_model_into(nn::Sequential& model, const std::string& path);

// Header fields of a checkpoint, readable without loading the payload.
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::string model_name;
  store::Hash payload_hash;
  store::Hash topology_hash;
};
CheckpointInfo read_checkpoint_info(const std::string& path);

// Structural signature: SHA-256 over the ordered parameter names and
// shapes. Two models agree iff load_model_into could succeed between them.
store::Hash topology_signature(const nn::Sequential& model);

// Content hash of the full parameter state — names, shapes, value bytes,
// mask bytes and transform descriptions. Used as the "initial weights"
// closure input of training derivations: it changes whenever
// models::make_model (topology or init scheme) or the seed changes, which
// is exactly when a cached training artifact must be invalidated.
store::Hash model_state_hash(const nn::Sequential& model);

bool file_exists(const std::string& path);

// Standalone tensor serialization (used for cached datasets/analysis).
void save_tensor(const tensor::Tensor& t, const std::string& path);
tensor::Tensor load_tensor(const std::string& path);

// Directory where examples/benches drop CSVs, manifests and their artifact
// store; created on first use. Defaults to "artifacts" under the current
// working directory, or $CON_ARTIFACTS_DIR when set.
std::string artifacts_dir();

}  // namespace con::io
