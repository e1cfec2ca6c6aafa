#include "lint.h"

#include <algorithm>
#include <cstddef>

namespace conlint {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

// Rules come in direct/transitive families: an allow(determinism) on a
// line also covers a transitive-determinism finding there (one annotation
// per site, not one per analysis depth).
std::string family_base(const std::string& rule) {
  const std::string prefix = "transitive-";
  if (rule.compare(0, prefix.size(), prefix) == 0) {
    return rule.substr(prefix.size());
  }
  return rule;
}

struct Sink {
  const std::string* file;
  std::map<int, std::set<std::string>> allows;  // line -> rules allowed
  UsedAllows* used_allows;
  std::vector<Diagnostic>* active;
  std::vector<Diagnostic>* suppressed;

  void report(int line, const std::string& rule, std::string message) {
    Diagnostic d{*file, line, rule, std::move(message)};
    const std::string base = family_base(rule);
    for (int l : {line, line - 1}) {
      auto it = allows.find(l);
      if (it == allows.end()) continue;
      for (const std::string& candidate : {rule, base}) {
        if (it->second.count(candidate) != 0) {
          used_allows->insert({l, candidate});
          suppressed->push_back(std::move(d));
          return;
        }
      }
    }
    active->push_back(std::move(d));
  }
};

// ---- layer-reentrancy -------------------------------------------------------

void rule_layer_reentrancy(const Toks& t, const Segmentation& seg,
                           const std::set<std::string>& layer_classes,
                           Sink& sink) {
  // `mutable` members anywhere in a Layer-derived class body. Direct member
  // writes in forward/backward need no rule: both are const, so the
  // compiler rejects them, and `mutable` is the only way around that.
  for (const ClassRange& c : seg.classes) {
    if (layer_classes.count(c.name) == 0) continue;
    for (std::size_t i = c.open + 1; i < c.close; ++i) {
      if (!is_ident(t, i, "mutable")) continue;
      sink.report(t[i].line, "layer-reentrancy",
                  "mutable member in Layer-derived class '" + c.name +
                      "': forward/backward are const and run concurrently "
                      "on shared models (nn/layer.h contract)");
    }
  }
}

// ---- determinism ------------------------------------------------------------

void rule_determinism(const Toks& t, Sink& sink) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool member_access =
        i > 0 && (is_punct(t, i - 1, ".") || is_punct(t, i - 1, "->"));
    if ((s == "rand" || s == "srand") && is_punct(t, i + 1, "(") &&
        !member_access) {
      sink.report(t[i].line, "determinism",
                  s + "() draws from global hidden state; use a named "
                      "util::Rng stream derived from the experiment seed");
      continue;
    }
    if (s == "random_device" && !member_access) {
      sink.report(t[i].line, "determinism",
                  "std::random_device is non-deterministic; derive seeds "
                  "from the experiment seed (util/rng.h)");
      continue;
    }
    if (s == "time" && !member_access && is_punct(t, i + 1, "(") &&
        (is_ident(t, i + 2, "nullptr") || is_ident(t, i + 2, "NULL") ||
         (t.size() > i + 2 && t[i + 2].kind == TokKind::kNumber &&
          t[i + 2].text == "0")) &&
        is_punct(t, i + 3, ")")) {
      sink.report(t[i].line, "determinism",
                  "time(nullptr) makes runs irreproducible; thread a "
                  "timestamp in from the caller if one is needed");
      continue;
    }
    if (s == "now" && i > 0 && is_punct(t, i - 1, "::") &&
        is_punct(t, i + 1, "(")) {
      sink.report(t[i].line, "determinism",
                  "clock ::now() outside src/obs//src/util/; results must "
                  "not depend on wall time (use obs spans or util::Timer "
                  "for measurement)");
      continue;
    }
    if (s == "mt19937" || s == "mt19937_64") {
      // In a template argument or nested-name position: not a construction.
      if (is_punct(t, i + 1, "::") || is_punct(t, i + 1, ">") ||
          is_punct(t, i + 1, ",")) {
        continue;
      }
      bool unseeded = false;
      std::size_t j = i + 1;
      if (j < t.size() && t[j].kind == TokKind::kIdent) {
        // declaration: `mt19937 gen;` / `mt19937 gen(seed);`
        std::size_t k = j + 1;
        if (is_punct(t, k, ";") || is_punct(t, k, ",") ||
            is_punct(t, k, ")")) {
          unseeded = true;
        } else if (is_punct(t, k, "(") || is_punct(t, k, "{")) {
          unseeded = is_punct(t, k + 1, k < t.size() && t[k].text == "("
                                            ? ")"
                                            : "}");
        }
      } else if (is_punct(t, j, "(") || is_punct(t, j, "{")) {
        // temporary: `mt19937{}` / `mt19937()`
        unseeded =
            is_punct(t, j + 1, t[j].text == "(" ? ")" : "}");
      }
      if (unseeded) {
        sink.report(t[i].line, "determinism",
                    "std::" + s +
                        " constructed without an explicit seed expression; "
                        "seed it from the experiment seed (util/rng.h)");
      }
    }
  }
}

// ---- transitive-determinism -------------------------------------------------

void rule_transitive_determinism(const std::string& path,
                                 const ProjectIndex& index,
                                 const CallGraph& graph, Sink& sink) {
  const FileIndex* fi = index.file(path);
  if (fi == nullptr) return;
  for (std::size_t id : fi->function_ids) {
    const FunctionDef& fn = index.functions()[id];
    for (const CallSite& c : fn.calls) {
      const CallGraph::TaintResult r = graph.taint_chain(fn, c);
      // Sources in non-exempt files are flagged at the source by the direct
      // determinism rule; the transitive rule exists for sources *hiding*
      // in exempt trees, reached from code that must stay reproducible.
      if (!r.found || !r.source_exempt) continue;
      sink.report(c.line, "transitive-determinism",
                  "call to '" + c.name +
                      "' reaches a non-deterministic source (" + r.what +
                      ") through an exempt tree: " + r.chain +
                      "; results must not depend on hidden entropy "
                      "(util/rng.h)");
    }
  }
}

// ---- include-hygiene --------------------------------------------------------

void rule_include_hygiene(const std::string& path, const Toks& t,
                          const LexResult& lx, bool is_header, Sink& sink) {
  // SIMD intrinsics headers are confined to the per-ISA kernel TUs: only
  // src/tensor/kernels/ is compiled with ISA flags, so an intrinsic
  // anywhere else either fails to build or — worse — emits unguarded
  // vector instructions into code the runtime dispatch never probes
  // (tensor/kernels/dispatch.h contract).
  if (!path_contains(path, "src/tensor/kernels/")) {
    static const char* const kIntrinsicHeaders[] = {
        "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
        "smmintrin.h", "tmmintrin.h", "avxintrin.h", "avx2intrin.h",
        "arm_neon.h",  "arm_sve.h"};
    for (const Token& tok : t) {
      if (tok.kind != TokKind::kPreproc) continue;
      if (tok.text.find("include") == std::string::npos) continue;
      for (const char* h : kIntrinsicHeaders) {
        if (tok.text.find(h) != std::string::npos) {
          sink.report(tok.line, "include-hygiene",
                      std::string("<") + h +
                          "> outside src/tensor/kernels/: SIMD intrinsics "
                          "belong in the per-TU-ISA-flagged kernel files "
                          "behind the runtime dispatch table "
                          "(tensor/kernels/dispatch.h)");
          break;
        }
      }
    }
  }
  if (!is_header) return;
  if (!lx.has_pragma_once) {
    sink.report(1, "include-hygiene", "header is missing #pragma once");
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is_ident(t, i, "using") && is_ident(t, i + 1, "namespace")) {
      sink.report(t[i].line, "include-hygiene",
                  "using-directive in a header leaks into every includer; "
                  "use explicit qualification or scoped aliases");
    }
  }
}

}  // namespace

// ---- entry points -----------------------------------------------------------

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "layer-reentrancy", "determinism", "transitive-determinism",
      "lock-order", "include-hygiene"};
  return names;
}

FileLint lint_source(const std::string& path, const std::string& source,
                     const ProjectIndex& index, const CallGraph& graph) {
  FileLint out;
  LexResult lx = lex(source);

  Sink sink;
  sink.file = &path;
  sink.active = &out.diagnostics;
  sink.suppressed = &out.suppressed;
  sink.used_allows = &out.used_allows;
  for (const Allow& a : lx.allows) {
    bool known = false;
    for (const std::string& r : rule_names()) known = known || r == a.rule;
    if (!known) {
      out.diagnostics.push_back(
          {path, a.line, "directive",
           "conlint:allow names unknown rule '" + a.rule + "'"});
      continue;
    }
    sink.allows[a.line].insert(a.rule);
  }
  for (const DirectiveError& e : lx.directive_errors) {
    out.diagnostics.push_back({path, e.line, "directive", e.message});
  }

  Segmentation seg = segment(lx.tokens);
  const bool is_header = ends_with(path, ".h") || ends_with(path, ".hpp");

  rule_layer_reentrancy(lx.tokens, seg, index.derived_from("Layer"), sink);
  if (!determinism_exempt_path(path)) rule_determinism(lx.tokens, sink);
  rule_transitive_determinism(path, index, graph, sink);
  rule_include_hygiene(path, lx.tokens, lx, is_header, sink);

  std::sort(out.diagnostics.begin(), out.diagnostics.end());
  std::sort(out.suppressed.begin(), out.suppressed.end());
  return out;
}

ProjectLint lint_project(const ProjectIndex& index, const CallGraph& graph) {
  ProjectLint out;
  for (const std::vector<CallGraph::LockEdge>& cycle : graph.lock_cycles()) {
    if (cycle.empty()) continue;
    std::string order;
    for (const CallGraph::LockEdge& e : cycle) {
      if (order.empty()) order = e.from;
      order += " -> " + e.to;
    }
    std::string evidence;
    for (const CallGraph::LockEdge& e : cycle) {
      if (!evidence.empty()) evidence += "; ";
      evidence += e.note;
    }
    const CallGraph::LockEdge& anchor = cycle.front();
    Diagnostic d{anchor.file, anchor.line, "lock-order",
                 "potential deadlock: lock acquisition order cycle " + order +
                     " (" + evidence + "); acquire these mutexes in one "
                     "global order or collapse them behind a single lock"};
    bool matched = false;
    if (const FileIndex* fi = index.file(anchor.file)) {
      for (const Allow& a : fi->allows) {
        if (a.rule != "lock-order") continue;
        if (a.line == anchor.line || a.line == anchor.line - 1) {
          out.used_allows[anchor.file].insert({a.line, a.rule});
          out.suppressed.push_back(d);
          matched = true;
          break;
        }
      }
    }
    if (!matched) out.diagnostics.push_back(std::move(d));
  }
  std::sort(out.diagnostics.begin(), out.diagnostics.end());
  std::sort(out.suppressed.begin(), out.suppressed.end());
  return out;
}

std::vector<Diagnostic> stale_suppressions(
    const ProjectIndex& index, const std::vector<std::string>& files,
    const std::map<std::string, UsedAllows>& used) {
  std::vector<Diagnostic> out;
  for (const std::string& path : files) {
    const FileIndex* fi = index.file(path);
    if (fi == nullptr) continue;
    const UsedAllows* u = nullptr;
    auto it = used.find(path);
    if (it != used.end()) u = &it->second;
    for (const Allow& a : fi->allows) {
      bool known = false;
      for (const std::string& r : rule_names()) known = known || r == a.rule;
      if (!known) continue;  // already a directive error
      if (u != nullptr && u->count({a.line, a.rule}) != 0) continue;
      out.push_back(
          {path, a.line, "stale-suppression",
           "conlint:allow(" + a.rule +
               ") suppresses no finding; the engine now proves this site "
               "clean — remove the annotation"});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace conlint
