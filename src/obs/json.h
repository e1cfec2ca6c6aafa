// Minimal JSON tree: enough to emit Chrome traces and run manifests and to
// parse them back for validation (tests, the obs_validate tool).
//
// Deliberately small: one value type backed by explicit storage members
// instead of std::variant (cheap to compile, trivial to step through),
// objects preserve insertion order so emitted files diff cleanly, and
// numbers distinguish integers from doubles so counters round-trip exactly.
// Not a general-purpose parser — it accepts strict JSON only (no comments,
// no trailing commas) and rejects anything else with a position-tagged
// error, which is exactly what a validator wants.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace con::obs {

class Json;
using JsonMembers = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(std::uint64_t v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool as_bool() const { return check(Kind::kBool), bool_; }
  std::int64_t as_int() const { return check(Kind::kInt), int_; }
  double as_double() const {
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return check(Kind::kDouble), double_;
  }
  const std::string& as_string() const { return check(Kind::kString), string_; }
  const std::vector<Json>& items() const { return check(Kind::kArray), array_; }
  const JsonMembers& members() const { return check(Kind::kObject), members_; }

  void push_back(Json v) {
    check(Kind::kArray);
    array_.push_back(std::move(v));
  }
  // Appends (object keys are written once per manifest section; no need for
  // replace semantics).
  void set(std::string key, Json v) {
    check(Kind::kObject);
    members_.emplace_back(std::move(key), std::move(v));
  }
  // First member named `key`, or nullptr.
  const Json* find(const std::string& key) const;

  // Compact single-line serialization (Chrome's trace viewer and Perfetto
  // both accept it); `indent >= 0` pretty-prints instead.
  std::string dump(int indent = -1) const;

 private:
  void check(Kind want) const {
    if (kind_ != want) throw std::logic_error("Json: wrong kind access");
  }
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  JsonMembers members_;
};

// Strict parse of a full document; throws std::runtime_error with a byte
// offset on malformed input (trailing garbage, numbers a double cannot hold
// and nesting deeper than 256 levels included).
Json parse_json(const std::string& text);

// Escape `s` into a quoted JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace con::obs
