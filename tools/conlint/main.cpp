// conlint CLI: lints the project trees (src/, tests/, bench/, examples/)
// against the invariants in lint.h, using the two-pass index/call-graph
// engine (index.h, callgraph.h).
//
// Usage:
//   conlint --root <repo-root> [--json] [--manifest-dir <dir>]
//           [--strict-suppressions] [file...]
//
// With explicit file arguments only those files are linted (still using the
// whole-project index from --root, so transitive rules see every callee).
// Stale conlint:allow annotations are warnings by default and errors under
// --strict-suppressions. Exit status: 0 clean, 1 findings, 2 usage or I/O
// error.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "index.h"
#include "lint.h"
#include "obs/json.h"
#include "obs/manifest.h"

namespace fs = std::filesystem;

namespace {

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  return (ec || rel.empty()) ? p.generic_string() : rel.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  bool strict_suppressions = false;
  std::string manifest_dir;
  std::vector<std::string> explicit_files;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--root" && a + 1 < argc) {
      root = argv[++a];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--strict-suppressions") {
      strict_suppressions = true;
    } else if (arg == "--manifest-dir" && a + 1 < argc) {
      manifest_dir = argv[++a];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: conlint --root <repo-root> [--json] "
                   "[--manifest-dir <dir>] [--strict-suppressions] "
                   "[file...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "conlint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      explicit_files.push_back(arg);
    }
  }

  const fs::path root_path(root);
  if (!fs::exists(root_path / "src")) {
    std::cerr << "conlint: '" << root
              << "' does not look like the repo root (no src/)\n";
    return 2;
  }

  // One deterministic walk (sorted by generic path — directory iteration
  // order is filesystem-specific) serves both the index and, absent
  // explicit file arguments, the lint list. Byte-identical --json output on
  // every filesystem depends on this.
  const std::vector<fs::path> tree_files = conlint::collect_lintable_files(
      root_path);

  std::vector<fs::path> files;
  if (!explicit_files.empty()) {
    for (const std::string& f : explicit_files) files.emplace_back(f);
    std::sort(files.begin(), files.end(),
              [](const fs::path& a, const fs::path& b) {
                return a.generic_string() < b.generic_string();
              });
  } else {
    files = tree_files;
  }

  // Pass 1: project-wide index over every tree file (even when linting a
  // subset, transitive rules need every definition).
  conlint::ProjectIndex index;
  for (const fs::path& p : tree_files) {
    std::string source;
    if (read_file(p, source)) {
      index.add_file(relative_to(p, root_path), source);
    }
  }
  // Explicit files may live outside the trees; index them too.
  for (const fs::path& p : files) {
    const std::string rel = relative_to(p, root_path);
    if (index.file(rel) != nullptr) continue;
    std::string source;
    if (read_file(p, source)) index.add_file(rel, source);
  }
  const conlint::CallGraph graph(index);

  // Pass 2: per-file rules, then project-global rules.
  std::vector<conlint::Diagnostic> diagnostics;
  std::size_t suppressed_count = 0;
  std::size_t allow_count = 0;
  std::vector<std::string> linted;
  std::map<std::string, conlint::UsedAllows> used_allows;
  for (const fs::path& p : files) {
    std::string source;
    if (!read_file(p, source)) {
      std::cerr << "conlint: cannot read '" << p.string() << "'\n";
      return 2;
    }
    const std::string rel = relative_to(p, root_path);
    conlint::FileLint fl = conlint::lint_source(rel, source, index, graph);
    diagnostics.insert(diagnostics.end(), fl.diagnostics.begin(),
                       fl.diagnostics.end());
    suppressed_count += fl.suppressed.size();
    used_allows[rel].insert(fl.used_allows.begin(), fl.used_allows.end());
    linted.push_back(rel);
    if (const conlint::FileIndex* fi = index.file(rel)) {
      allow_count += fi->allows.size();
    }
  }

  {
    conlint::ProjectLint pl = conlint::lint_project(index, graph);
    const std::set<std::string> linted_set(linted.begin(), linted.end());
    for (conlint::Diagnostic& d : pl.diagnostics) {
      // When linting a subset, only report cycles anchored in it.
      if (linted_set.count(d.file) != 0) diagnostics.push_back(std::move(d));
    }
    for (const conlint::Diagnostic& d : pl.suppressed) {
      if (linted_set.count(d.file) != 0) ++suppressed_count;
    }
    for (const auto& [file, used] : pl.used_allows) {
      used_allows[file].insert(used.begin(), used.end());
    }
  }

  const std::vector<conlint::Diagnostic> stale =
      conlint::stale_suppressions(index, linted, used_allows);
  if (strict_suppressions) {
    diagnostics.insert(diagnostics.end(), stale.begin(), stale.end());
  }
  std::sort(diagnostics.begin(), diagnostics.end());

  if (json) {
    con::obs::Json doc = con::obs::Json::object();
    doc.set("tool", "conlint");
    doc.set("root", root);
    doc.set("files_linted", static_cast<std::int64_t>(files.size()));
    doc.set("suppressed", static_cast<std::int64_t>(suppressed_count));
    doc.set("allow_annotations", static_cast<std::int64_t>(allow_count));
    doc.set("strict_suppressions", strict_suppressions);
    con::obs::Json rules = con::obs::Json::array();
    for (const std::string& r : conlint::rule_names()) rules.push_back(r);
    doc.set("rules", std::move(rules));
    con::obs::Json diags = con::obs::Json::array();
    for (const conlint::Diagnostic& d : diagnostics) {
      con::obs::Json j = con::obs::Json::object();
      j.set("file", d.file);
      j.set("line", d.line);
      j.set("rule", d.rule);
      j.set("message", d.message);
      diags.push_back(std::move(j));
    }
    doc.set("diagnostics", std::move(diags));
    con::obs::Json stale_arr = con::obs::Json::array();
    if (!strict_suppressions) {
      for (const conlint::Diagnostic& d : stale) {
        con::obs::Json j = con::obs::Json::object();
        j.set("file", d.file);
        j.set("line", d.line);
        j.set("message", d.message);
        stale_arr.push_back(std::move(j));
      }
    }
    doc.set("stale_suppressions", std::move(stale_arr));
    std::cout << doc.dump(2) << "\n";
  } else {
    for (const conlint::Diagnostic& d : diagnostics) {
      std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
    if (!strict_suppressions) {
      for (const conlint::Diagnostic& d : stale) {
        std::cout << d.file << ":" << d.line << ": warning: [" << d.rule
                  << "] " << d.message << "\n";
      }
    }
    std::cout << "conlint: " << files.size() << " files, "
              << diagnostics.size() << " diagnostic"
              << (diagnostics.size() == 1 ? "" : "s") << ", "
              << suppressed_count << " suppressed, " << allow_count
              << " allow annotation" << (allow_count == 1 ? "" : "s") << "\n";
  }

  if (!manifest_dir.empty()) {
    std::error_code ec;
    fs::create_directories(manifest_dir, ec);
    if (ec) {
      std::cerr << "conlint: cannot create manifest dir '" << manifest_dir
                << "': " << ec.message() << "\n";
      return 2;
    }
    con::obs::RunManifest m;
    m.name = "conlint";
    m.config.emplace_back("root", con::obs::Json(root));
    m.config.emplace_back(
        "files_linted", con::obs::Json(static_cast<std::int64_t>(files.size())));
    m.extra_counters.emplace_back("conlint.diagnostics", diagnostics.size());
    m.extra_counters.emplace_back("conlint.suppressed", suppressed_count);
    m.extra_counters.emplace_back("conlint.allow_annotations", allow_count);
    m.extra_counters.emplace_back("conlint.stale_suppressions", stale.size());
    if (con::obs::write_manifest(m, manifest_dir).empty()) {
      std::cerr << "conlint: cannot write manifest to '" << manifest_dir
                << "'\n";
      return 2;
    }
  }

  return diagnostics.empty() ? 0 : 1;
}
