#include "io/checkpoint.h"

#include "compress/fixed_point.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace con::io {

namespace {

constexpr char kMagic[4] = {'C', 'O', 'N', 'M'};
constexpr std::uint32_t kVersion = 3;

void write_bytes(std::ostream& f, const void* data, std::size_t n) {
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void read_bytes(std::istream& f, void* data, std::size_t n) {
  f.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!f) throw std::runtime_error("checkpoint: unexpected end of file");
}

template <typename T>
void write_pod(std::ostream& f, T v) {
  write_bytes(f, &v, sizeof(T));
}

template <typename T>
T read_pod(std::istream& f) {
  T v;
  read_bytes(f, &v, sizeof(T));
  return v;
}

void write_string(std::ostream& f, const std::string& s) {
  write_pod<std::uint64_t>(f, s.size());
  write_bytes(f, s.data(), s.size());
}

std::string read_string(std::istream& f) {
  const auto n = read_pod<std::uint64_t>(f);
  if (n > (1u << 20)) throw std::runtime_error("checkpoint: string too long");
  std::string s(static_cast<std::size_t>(n), '\0');
  read_bytes(f, s.data(), s.size());
  return s;
}

void write_tensor_body(std::ostream& f, const tensor::Tensor& t) {
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(t.rank()));
  for (tensor::Index d : t.shape().dims()) write_pod<std::int64_t>(f, d);
  write_bytes(f, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

// Bytes between the read position and the end of `f`: the bound on any
// length a header or a shape may claim, checked before allocating for it.
std::uint64_t bytes_left(std::istream& f) {
  const std::streamoff here = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff end = f.tellg();
  f.seekg(here);
  if (here < 0 || end < here || !f) {
    throw std::runtime_error("checkpoint: cannot size the stream");
  }
  return static_cast<std::uint64_t>(end - here);
}

tensor::Tensor read_tensor_body(std::istream& f) {
  const auto rank = read_pod<std::uint32_t>(f);
  if (rank > 8) throw std::runtime_error("checkpoint: implausible rank");
  std::vector<tensor::Index> dims(rank);
  for (auto& d : dims) {
    d = read_pod<std::int64_t>(f);
    if (d < 0 || d > (1 << 28)) {
      throw std::runtime_error("checkpoint: implausible dimension");
    }
  }
  // The element count must fit in what is left of the file, checked factor
  // by factor so the product cannot overflow (a zero dimension needs none).
  if (std::find(dims.begin(), dims.end(), 0) == dims.end()) {
    const std::uint64_t limit = bytes_left(f) / sizeof(float);
    std::uint64_t numel = 1;
    for (tensor::Index d : dims) {
      if (numel > limit / static_cast<std::uint64_t>(d)) {
        throw std::runtime_error("checkpoint: tensor larger than the file");
      }
      numel *= static_cast<std::uint64_t>(d);
    }
  }
  tensor::Tensor t{tensor::Shape{std::move(dims)}};
  read_bytes(f, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

void write_payload(std::ostream& f, const std::vector<nn::Parameter*>& params) {
  write_pod<std::uint64_t>(f, params.size());
  for (nn::Parameter* p : params) {
    write_string(f, p->name);
    write_tensor_body(f, p->value());
    write_pod<std::uint8_t>(f, p->has_mask() ? 1 : 0);
    if (p->has_mask()) write_tensor_body(f, p->mask());
    if (const auto* fp =
            dynamic_cast<const compress::FixedPointWeightTransform*>(
                p->transform().get())) {
      write_pod<std::uint8_t>(f, 1);
      write_pod<std::int32_t>(f, fp->format().total_bits);
      write_pod<std::int32_t>(f, fp->format().integer_bits);
    } else {
      if (p->transform() != nullptr) {
        throw std::runtime_error("save_model: parameter " + p->name +
                                 " carries an unserializable weight transform");
      }
      write_pod<std::uint8_t>(f, 0);
    }
  }
}

void load_payload(std::istream& f, const std::vector<nn::Parameter*>& params,
                  const std::string& path) {
  const auto count = read_pod<std::uint64_t>(f);
  if (count != params.size()) {
    throw std::runtime_error("checkpoint parameter count mismatch: " + path +
                             " has " + std::to_string(count) +
                             ", model has " + std::to_string(params.size()));
  }
  for (nn::Parameter* p : params) {
    const std::string name = read_string(f);
    if (name != p->name) {
      throw std::runtime_error("checkpoint parameter order mismatch: " + name +
                               " vs " + p->name);
    }
    tensor::Tensor value = read_tensor_body(f);
    if (value.shape() != p->value().shape()) {
      throw std::runtime_error("checkpoint shape mismatch for " + name);
    }
    tensor::Tensor mask;
    if (read_pod<std::uint8_t>(f) != 0) {
      mask = read_tensor_body(f);
      if (mask.shape() != value.shape()) {
        throw std::runtime_error("checkpoint mask shape mismatch for " + name);
      }
    }
    std::shared_ptr<const nn::WeightTransform> transform;
    const auto kind = read_pod<std::uint8_t>(f);
    if (kind == 1) {
      compress::FixedPointFormat fmt;
      fmt.total_bits = read_pod<std::int32_t>(f);
      fmt.integer_bits = read_pod<std::int32_t>(f);
      if (!fmt.valid()) {
        throw std::runtime_error("checkpoint: bad fixed-point record");
      }
      transform =
          std::make_shared<const compress::FixedPointWeightTransform>(fmt);
    } else if (kind != 0) {
      // Kind 2 was the weight-clustering codebook, which this build no
      // longer has.
      throw std::runtime_error("checkpoint: unknown transform kind " +
                               std::to_string(kind) + " in " + path);
    }
    // Each setter bumps the version, so packed weight panels built before
    // the load are dropped (nn/packed_weights.h).
    p->set_value(std::move(value));
    p->set_mask(std::move(mask));
    p->set_transform(std::move(transform));
  }
}

struct Header {
  std::uint32_t version = 0;
  std::string model_name;
  store::Hash payload_hash;
  store::Hash topology_hash;
  std::uint64_t payload_size = 0;
};

Header read_header(std::istream& f, const std::string& path) {
  char magic[4];
  read_bytes(f, magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error(path + " is not a model checkpoint");
  }
  Header h;
  h.version = read_pod<std::uint32_t>(f);
  if (h.version != kVersion) {
    throw std::runtime_error("unsupported checkpoint version " +
                             std::to_string(h.version) + " in " + path);
  }
  h.model_name = read_string(f);
  read_bytes(f, h.payload_hash.bytes.data(), h.payload_hash.bytes.size());
  read_bytes(f, h.topology_hash.bytes.data(), h.topology_hash.bytes.size());
  h.payload_size = read_pod<std::uint64_t>(f);
  return h;
}

}  // namespace

store::Hash topology_signature(const nn::Sequential& model) {
  store::Sha256 h;
  h.update("topology 1\n");
  for (const nn::Parameter* param : model.parameters()) {
    h.update(param->name);
    h.update("\n");
    for (tensor::Index d : param->value().shape().dims()) {
      const std::int64_t dim = d;
      h.update(&dim, sizeof(dim));
    }
    h.update(";");
  }
  return h.finish();
}

store::Hash model_state_hash(const nn::Sequential& model) {
  store::Sha256 h;
  h.update("model-state 1\n");
  for (const nn::Parameter* param : model.parameters()) {
    h.update(param->name);
    h.update("\n");
    for (tensor::Index d : param->value().shape().dims()) {
      const std::int64_t dim = d;
      h.update(&dim, sizeof(dim));
    }
    const tensor::Tensor& value = param->value();
    h.update(value.data(),
             static_cast<std::size_t>(value.numel()) * sizeof(float));
    h.update(param->has_mask() ? "m1" : "m0");
    if (param->has_mask()) {
      const tensor::Tensor& mask = param->mask();
      h.update(mask.data(),
               static_cast<std::size_t>(mask.numel()) * sizeof(float));
    }
    if (param->transform() != nullptr) {
      h.update(param->transform()->describe());
    }
    h.update(";");
  }
  return h.finish();
}

void save_model(nn::Sequential& model, const std::string& path) {
  // Serialize the payload to memory first: the v3 header carries its hash
  // and size, and checkpoints are small (at most a few MB) relative to the
  // training runs that produce them.
  std::ostringstream payload_stream;
  write_payload(payload_stream, model.parameters());
  const std::string payload = payload_stream.str();

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  write_bytes(f, kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(f, kVersion);
  write_string(f, model.name());
  const store::Hash payload_hash =
      store::hash_bytes(payload.data(), payload.size());
  const store::Hash topo_hash = topology_signature(model);
  write_bytes(f, payload_hash.bytes.data(), payload_hash.bytes.size());
  write_bytes(f, topo_hash.bytes.data(), topo_hash.bytes.size());
  write_pod<std::uint64_t>(f, payload.size());
  write_bytes(f, payload.data(), payload.size());
  if (!f) throw std::runtime_error("checkpoint: write failed for " + path);
}

void load_model_into(nn::Sequential& model, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  const Header h = read_header(f, path);
  // Pull the payload into memory and verify its digest before touching any
  // parameter: a truncated or bit-rotted artifact must fail loudly, not
  // half-load. The size is checked against the file before it is allocated.
  if (h.payload_size > bytes_left(f)) {
    throw std::runtime_error("checkpoint payload larger than the file: " +
                             path + " (corrupt or truncated artifact)");
  }
  std::string payload(static_cast<std::size_t>(h.payload_size), '\0');
  read_bytes(f, payload.data(), payload.size());
  if (store::hash_bytes(payload.data(), payload.size()) != h.payload_hash) {
    throw std::runtime_error("checkpoint payload hash mismatch for " + path +
                             " (corrupt or truncated artifact)");
  }
  std::istringstream ps(payload);
  load_payload(ps, model.parameters(), path);
  // Checkpoints are self-describing: the stored name travels with the
  // weights (a store object's filename is a hash, not a description).
  if (!h.model_name.empty()) model.set_name(h.model_name);
}

CheckpointInfo read_checkpoint_info(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  const Header h = read_header(f, path);
  return CheckpointInfo{.version = h.version,
                        .model_name = h.model_name,
                        .payload_hash = h.payload_hash,
                        .topology_hash = h.topology_hash};
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void save_tensor(const tensor::Tensor& t, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  write_tensor_body(f, t);
  if (!f) throw std::runtime_error("tensor write failed for " + path);
}

tensor::Tensor load_tensor(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return read_tensor_body(f);
}

std::string artifacts_dir() {
  const char* env = std::getenv("CON_ARTIFACTS_DIR");
  std::string dir = env != nullptr ? env : "artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create artifacts dir " + dir);
  return dir;
}

}  // namespace con::io
