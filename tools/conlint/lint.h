// conlint rule engine: project-invariant checks over token streams, backed
// by the two-pass ProjectIndex/CallGraph (index.h, callgraph.h). Each rule
// guards a contract the paper's numbers rest on (DESIGN.md §7); the
// allocation contract is measured, not linted (tests/test_heap.cpp), and
// the packed-weight version contract is held by nn::Parameter's type.
//
// Per-file rules:
//   layer-reentrancy   — Layer-derived classes have no `mutable` members:
//                        forward/backward are const and run concurrently on
//                        shared models.
//   determinism        — no unseeded/wall-clock randomness outside
//                        src/obs/ and src/util/: attacks and sweeps are
//                        bit-reproducible from the experiment seed.
//   include-hygiene    — #pragma once, no `using namespace` in headers,
//                        intrinsics headers only under src/tensor/kernels/.
//   directive          — malformed conlint directives; never suppressible.
//
// Transitive rules (need the call graph):
//   transitive-determinism — non-exempt code reaches a randomness source
//                        that lives in an exempt file (sources in
//                        non-exempt files are already flagged directly).
//                        allow(determinism) also covers it.
//   lock-order         — cycles in the project-wide lock-acquisition-order
//                        graph (reported once per cycle via lint_project,
//                        anchored at the first edge's file).
//
// Every rule except `directive` is suppressible with
//   // conlint:allow(<rule>): <reason>
// on the offending line or the line directly above it. The reason string is
// mandatory. A suppression that suppresses nothing is itself reported
// (stale-suppression; --strict-suppressions turns it into an error).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.h"
#include "index.h"
#include "lexer.h"

namespace conlint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

// (line, rule-as-written) pairs of allow annotations that suppressed at
// least one finding — the complement feeds stale-suppression reporting.
using UsedAllows = std::set<std::pair<int, std::string>>;

struct FileLint {
  std::vector<Diagnostic> diagnostics;  // active findings
  std::vector<Diagnostic> suppressed;   // findings matched by an allow
  UsedAllows used_allows;
};

// All suppressible rule names (for allow() validation and --json).
const std::vector<std::string>& rule_names();

// Lints one file. `path` decides header-ness (include-hygiene) and the
// determinism exemption; use repo-relative paths so diagnostics are stable
// across checkouts. `index` must contain `path` (add_file'd with the same
// source) for the index-backed rules to see its functions.
FileLint lint_source(const std::string& path, const std::string& source,
                     const ProjectIndex& index, const CallGraph& graph);

// Project-global rules — currently lock-order cycle reporting. Each cycle
// is anchored at its first edge's file/line and suppressible by an
// allow(lock-order) there.
struct ProjectLint {
  std::vector<Diagnostic> diagnostics;
  std::vector<Diagnostic> suppressed;
  std::map<std::string, UsedAllows> used_allows;  // per anchor file
};
ProjectLint lint_project(const ProjectIndex& index, const CallGraph& graph);

// Stale-suppression pass: allow annotations in `files` (repo-relative, must
// be indexed) that appear in no UsedAllows entry. Reported under the
// non-suppressible `stale-suppression` rule.
std::vector<Diagnostic> stale_suppressions(
    const ProjectIndex& index, const std::vector<std::string>& files,
    const std::map<std::string, UsedAllows>& used);

}  // namespace conlint
