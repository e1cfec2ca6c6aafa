// Pass 1 of the two-pass analyzer: a project-wide index built from every
// lintable file before any rule runs (DESIGN.md §7).
//
// The index stays deliberately "name-resolution-lite": function definitions
// are segmented by brace shape, calls are recorded by spelled name plus any
// `a::b::` qualifier or `.`/`->` member-access prefix, and class membership
// comes from the enclosing class body or an `X::` out-of-line qualifier.
// That is enough to follow the project's own call chains (the transitive
// rules only ever need candidates that are *defined in this tree*) without
// a real compiler front end, and a missed resolution degrades to a missed
// finding — never a false one on unrelated code.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace conlint {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

using Toks = std::vector<Token>;

inline bool is_ident(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == text;
}

inline bool is_punct(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}

// Matching-delimiter search. `open`/`close` are single-char punct ("(",
// ")"). Returns the index of the matching delimiter, or npos.
std::size_t match_forward(const Toks& t, std::size_t i, const char* open,
                          const char* close);
std::size_t match_backward(const Toks& t, std::size_t i, const char* open,
                           const char* close);

// ---- function/class segmentation -------------------------------------------

struct FunctionInfo {
  std::string name;
  std::string class_name;  // enclosing class or X:: qualifier; "" for free
  std::string ns;          // enclosing namespace chain, e.g. "con::tensor"
  std::size_t open = 0;    // index of the body '{'
  std::size_t close = 0;   // index of the matching '}'
  std::size_t head = 0;    // first token of the definition's statement
};

struct ClassRange {
  std::string name;
  std::size_t open = 0;
  std::size_t close = 0;
};

struct Segmentation {
  std::vector<FunctionInfo> functions;
  std::vector<ClassRange> classes;
};

Segmentation segment(const Toks& t);

// ---- per-function summaries -------------------------------------------------

// One call expression: `name(...)` with optional `a::b::` qualifier
// (`qualifier` holds "a::b") or `.`/`->` receiver (`member` true).
// For member calls whose receiver is a plain identifier chain
// (`w.transform.get()` → {"w","transform"}, `this->flush()` → {"this"}),
// `receiver` records it so resolution can type the receiver; expression
// receivers (`make().x()`, `(*p).x()`) leave it empty.
struct CallSite {
  std::string name;
  std::string qualifier;
  std::vector<std::string> receiver;
  bool member = false;
  std::size_t tok = 0;  // token index of `name` in the defining file
  int line = 0;
};

// One lock acquisition (lock_guard / unique_lock / scoped_lock /
// shared_lock declaration). `path` is the identifier chain of the mutex
// expression (`im.mu` → {"im","mu"}, `Store::mu` → {"Store","mu"} with
// `qualified` set); the project-wide mutex identity is resolved by the
// CallGraph once every file is indexed. `scope_end` is the token index
// closing the guard's enclosing block (the guard is held for every token in
// (tok, scope_end)). Sites from one multi-argument scoped_lock share a
// `group` and never form order edges against each other (std::scoped_lock
// acquires atomically).
struct LockSite {
  std::string expr;  // the spelled mutex expression, for messages
  std::vector<std::string> path;
  bool qualified = false;
  std::size_t tok = 0;
  std::size_t scope_end = 0;
  int group = 0;
  int line = 0;
};

struct RandomSite {
  int line = 0;
  std::string what;
};

struct FunctionDef {
  std::string file;        // repo-relative path of the defining file
  std::string name;
  std::string class_name;  // "" for free functions
  std::string ns;          // enclosing namespace chain ("" at global scope;
                           // anonymous namespaces contribute no segment)
  int head_line = 0;       // line of the definition's first token
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
  std::vector<RandomSite> randoms;
  // Candidate `TypeIdent [&*] name` bindings (params and locals), used to
  // type guard receiver expressions; validated against known classes at
  // resolution time.
  std::map<std::string, std::string> local_types;
};

struct MemberInfo {
  std::string type_key;  // last type identifier, e.g. "mutex", "Impl"
  bool is_mutex = false;
};

// Everything the per-file rules need about one indexed file.
struct FileIndex {
  std::vector<Allow> allows;
  std::vector<std::size_t> function_ids;  // into ProjectIndex::functions()
};

// Cross-file knowledge collected in pass 1: class hierarchy and member
// inventories, and function definitions with call/lock/randomness
// summaries.
class ProjectIndex {
 public:
  // Indexes one file. `path` should be repo-relative (it keys the index and
  // appears verbatim in diagnostics).
  void add_file(const std::string& path, const std::string& source);

  const std::vector<FunctionDef>& functions() const { return functions_; }
  const FileIndex* file(const std::string& path) const;

  // Function ids whose spelled name is `name` (sorted by id).
  const std::vector<std::size_t>* functions_named(const std::string& name) const;

  // Classes transitively deriving from `root` (the root itself included).
  std::set<std::string> derived_from(const std::string& root) const;
  // Transitive base classes of `cls` (not including `cls`).
  std::set<std::string> ancestors_of(const std::string& cls) const;

  bool known_class(const std::string& name) const;
  // Member lookup in a class body indexed from any file; null if unknown.
  const MemberInfo* member(const std::string& cls,
                           const std::string& name) const;
  // All classes declaring a member called `name` (sorted). Used as the
  // fallback when a guard's receiver expression has no resolvable type.
  std::vector<std::string> classes_with_member(const std::string& name) const;

 private:
  std::vector<FunctionDef> functions_;
  std::map<std::string, FileIndex> files_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::string, std::vector<std::string>> bases_;
  std::map<std::string, std::map<std::string, MemberInfo>> members_;
};

// Trees whose clock/randomness use is by design (observability timing,
// seeded RNG plumbing): exempt from the
// determinism rule, and the *sources* the transitive-determinism rule
// reports reached-from non-exempt code.
bool determinism_exempt_path(const std::string& path);

// The lintable project trees, and a deterministic walk over them: the file
// list is sorted by generic path string because
// fs::recursive_directory_iterator order is filesystem-specific, and the
// --json report / run manifest must be byte-identical everywhere.
extern const char* const kProjectTrees[4];
std::vector<std::filesystem::path> collect_lintable_files(
    const std::filesystem::path& root);

}  // namespace conlint
