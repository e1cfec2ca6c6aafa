// Deterministic random number generation for the whole study.
//
// Every source of randomness in the reproduction (weight init, data
// synthesis, shuffling, dropout) draws from a named stream derived from a
// single experiment seed, so runs are reproducible bit-for-bit regardless of
// evaluation order.
#pragma once

#include <cstdint>
#include <cmath>
#include <string_view>

namespace con::util {

// splitmix64: used to derive stream seeds and as the state initializer for
// xoshiro256**. Constants from Vigna's reference implementation.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a hash of a stream name, mixed with the experiment seed to produce
// independent named streams.
constexpr std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// xoshiro256** PRNG. Small, fast, and plenty good for ML workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

  Rng(std::uint64_t experiment_seed, std::string_view stream_name) {
    std::uint64_t mixed = experiment_seed ^ hash_name(stream_name);
    reseed(mixed);
  }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64_next(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  float uniform_f(float lo, float hi) {
    return static_cast<float>(uniform(lo, hi));
  }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation would be overkill;
    // modulo bias is negligible for the ranges used here (n << 2^64).
    return next_u64() % n;
  }

  // Standard normal via Box-Muller (no cached spare: keeps the generator
  // stateless apart from the xoshiro words, which simplifies reseeding).
  double normal() {
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  float normal_f(float mean, float stddev) {
    return static_cast<float>(normal(mean, stddev));
  }

  bool bernoulli(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace con::util
