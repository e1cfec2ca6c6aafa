// Tiny command-line flag parser used by benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--no-name`. Unknown flags are an error so typos in experiment scripts
// fail loudly instead of silently running the wrong configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace con::util {

class CliFlags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input. Positional
  // arguments are collected in order.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  // Numeric values must be read whole: garbage, trailing characters or an
  // out-of-range value throw std::invalid_argument naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  // As above, and a result outside [lo, hi] (the fallback's included)
  // throws std::invalid_argument naming the flag and the range. The value
  // comes back as T, the type of the caller's field, so no narrowing cast
  // can truncate it.
  template <typename T>
  T get_int(const std::string& name, T fallback, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi) const {
    const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
    if (v < static_cast<std::int64_t>(lo) ||
        v > static_cast<std::int64_t>(hi)) {
      throw std::invalid_argument("flag --" + name + " must lie in [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]: " +
                                  std::to_string(v));
    }
    return static_cast<T>(v);
  }
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Call after all get_* lookups: throws if any flag was provided but never
  // consumed (catches typos).
  void check_unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace con::util
