#include "index.h"

#include <algorithm>

namespace conlint {

namespace {

namespace fs = std::filesystem;

}  // namespace

std::size_t match_forward(const Toks& t, std::size_t i, const char* open,
                          const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is_punct(t, j, open)) ++depth;
    else if (is_punct(t, j, close) && --depth == 0) return j;
  }
  return npos;
}

std::size_t match_backward(const Toks& t, std::size_t i, const char* open,
                           const char* close) {
  int depth = 0;
  for (std::size_t j = i + 1; j-- > 0;) {
    if (is_punct(t, j, close)) ++depth;
    else if (is_punct(t, j, open) && --depth == 0) return j;
  }
  return npos;
}

namespace {

enum class BraceKind { kFunction, kClass, kNamespace, kOther };

// Walks backwards from the body '{' of a suspected function definition
// through a constructor member-initialiser list, if one is present, until
// the constructor's parameter-list ')'. `j` points at the token before the
// '{'. Returns the index of the ')' closing the parameter list, or npos if
// the shape is not an init list ending in ')'.
std::size_t skip_init_list_backward(const Toks& t, std::size_t j) {
  while (true) {
    // Expect the tail of a member initialiser: name(...) or name{...}.
    std::size_t g;
    if (is_punct(t, j, ")")) {
      g = match_backward(t, j, "(", ")");
    } else if (is_punct(t, j, "}")) {
      g = match_backward(t, j, "{", "}");
    } else {
      return npos;
    }
    if (g == npos || g == 0) return npos;
    std::size_t name = g - 1;
    if (name >= t.size() || t[name].kind != TokKind::kIdent) return npos;
    if (name == 0) return npos;
    std::size_t before = name - 1;
    // Template arguments in the member type? Not a member init we produce.
    if (is_punct(t, before, ",")) {
      j = before - 1;
      continue;  // previous initialiser in the list
    }
    if (is_punct(t, before, ":")) {
      // Start of the init list; before it must sit the ctor's ')'.
      if (before == 0) return npos;
      std::size_t p = before - 1;
      // noexcept / attribute gap between ')' and ':' is possible; skip
      // simple qualifier idents.
      while (p > 0 && t[p].kind == TokKind::kIdent) --p;
      if (!is_punct(t, p, ")")) return npos;
      return p;
    }
    return npos;
  }
}

// Classifies the '{' at token index `i` (known not to be inside a function
// body). On kFunction, fills `fn` (close index left 0). On kClass, fills
// `class_name`. On kNamespace, fills `ns_name` with the declared chain
// ("con::tensor" for `namespace con::tensor {`; "" for an anonymous
// namespace).
BraceKind classify_brace(const Toks& t, std::size_t i, FunctionInfo* fn,
                         std::string* class_name, std::string* ns_name) {
  // Scan the statement backwards for class/struct/namespace first: their
  // heads are unambiguous.
  for (std::size_t j = i; j-- > 0;) {
    const Token& tok = t[j];
    if (tok.kind == TokKind::kPunct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
         tok.text == ")")) {
      break;
    }
    if (tok.kind == TokKind::kIdent &&
        (tok.text == "class" || tok.text == "struct" ||
         tok.text == "union" || tok.text == "enum")) {
      if (tok.text == "enum" || tok.text == "union") return BraceKind::kOther;
      // Name: last identifier of the (possibly qualified) chain after the
      // keyword — `struct MetricsRegistry::Impl` names Impl.
      std::size_t k = j + 1;
      std::string name;
      while (k < t.size() && t[k].kind == TokKind::kIdent &&
             t[k].text != "final") {
        name = t[k].text;
        if (!is_punct(t, k + 1, "::")) break;
        k += 2;
      }
      if (name.empty()) return BraceKind::kOther;
      *class_name = name;
      return BraceKind::kClass;
    }
    if (tok.kind == TokKind::kIdent && tok.text == "namespace") {
      // Name chain: idents joined by '::' up to the '{'.
      std::string chain;
      for (std::size_t k = j + 1; k < i; ++k) {
        if (t[k].kind == TokKind::kIdent && t[k].text != "inline") {
          if (!chain.empty()) chain += "::";
          chain += t[k].text;
        }
      }
      *ns_name = chain;
      return BraceKind::kNamespace;
    }
  }

  // Function shape: ')' [qualifiers|trailing-return] '{', or a constructor
  // with ')' ':' init-list '{'.
  if (i == 0) return BraceKind::kOther;
  std::size_t j = i - 1;
  // Skip qualifiers and trailing-return-type tokens between ')' and '{'.
  bool saw_arrow = false;
  while (j > 0) {
    const Token& tok = t[j];
    if (tok.kind == TokKind::kIdent &&
        (tok.text == "const" || tok.text == "noexcept" ||
         tok.text == "override" || tok.text == "final" ||
         tok.text == "mutable")) {
      --j;
      continue;
    }
    if (is_punct(t, j, "->")) {
      saw_arrow = true;
      --j;
      continue;
    }
    // Trailing return type tokens are only skippable once we know an arrow
    // is coming further left; tentatively skip and validate below.
    if (tok.kind == TokKind::kIdent || is_punct(t, j, "::") ||
        is_punct(t, j, "<") || is_punct(t, j, ">") || is_punct(t, j, "&") ||
        is_punct(t, j, "*")) {
      // Look further left for '->' before a ')' shows up.
      std::size_t k = j;
      bool arrow = false;
      while (k > 0) {
        if (is_punct(t, k, "->")) { arrow = true; break; }
        if (is_punct(t, k, ")") || is_punct(t, k, ";") ||
            is_punct(t, k, "{") || is_punct(t, k, "}")) {
          break;
        }
        --k;
      }
      if (!arrow && !saw_arrow) return BraceKind::kOther;
      --j;
      continue;
    }
    break;
  }
  std::size_t close = npos;
  if (is_punct(t, j, ")")) {
    close = j;
  } else if (is_punct(t, j, "}") || is_punct(t, j, ")")) {
    close = skip_init_list_backward(t, j);
  } else if (is_punct(t, j, ":") || is_punct(t, j, ",")) {
    return BraceKind::kOther;
  }
  if (close == npos && is_punct(t, j, "}")) {
    close = skip_init_list_backward(t, j);
  }
  if (close == npos) return BraceKind::kOther;

  // `close` closes either the parameter list or a member initialiser; a
  // member initialiser is followed (leftwards) by ident then ':'/','.
  std::size_t open = match_backward(t, close, "(", ")");
  if (open == npos || open == 0) return BraceKind::kOther;
  std::size_t name = open - 1;
  if (t[name].kind != TokKind::kIdent) {
    // operator overloads: `operator` + punct before '('.
    if (t[name].kind == TokKind::kPunct && name > 0 &&
        is_ident(t, name - 1, "operator")) {
      fn->name = "operator" + t[name].text;
      fn->class_name.clear();
      fn->open = i;
      return BraceKind::kFunction;
    }
    return BraceKind::kOther;
  }
  // A member initialiser name would be preceded by ':' or ','; walk to the
  // constructor's parameter list in that case.
  if (name > 0 && (is_punct(t, name - 1, ":") || is_punct(t, name - 1, ","))) {
    std::size_t ctor_close = skip_init_list_backward(t, j);
    if (ctor_close == npos) return BraceKind::kOther;
    open = match_backward(t, ctor_close, "(", ")");
    if (open == npos || open == 0) return BraceKind::kOther;
    name = open - 1;
    if (t[name].kind != TokKind::kIdent) return BraceKind::kOther;
  }
  const std::string& n = t[name].text;
  if (n == "if" || n == "for" || n == "while" || n == "switch" ||
      n == "catch" || n == "return" || n == "sizeof" || n == "alignof" ||
      n == "decltype" || n == "noexcept") {
    return BraceKind::kOther;
  }
  fn->name = n;
  fn->class_name.clear();
  // X::name qualifier (out-of-line member definition).
  if (name >= 2 && is_punct(t, name - 1, "::") &&
      t[name - 2].kind == TokKind::kIdent) {
    fn->class_name = t[name - 2].text;
  }
  fn->open = i;
  return BraceKind::kFunction;
}

// First token of the statement containing token `i`: walks back to the
// previous ';', '{', '}' or preprocessor line.
std::size_t statement_head(const Toks& t, std::size_t i) {
  std::size_t j = i;
  while (j > 0) {
    const Token& prev = t[j - 1];
    if (prev.kind == TokKind::kPreproc) break;
    if (prev.kind == TokKind::kPunct &&
        (prev.text == ";" || prev.text == "{" || prev.text == "}")) {
      break;
    }
    --j;
  }
  return j;
}

}  // namespace

Segmentation segment(const Toks& t) {
  Segmentation out;
  struct Scope {
    BraceKind kind;
    std::size_t fn_index = 0;     // into out.functions
    std::size_t class_index = 0;  // into out.classes
  };
  std::vector<Scope> stack;
  auto inside_function = [&] {
    for (const Scope& s : stack) {
      if (s.kind == BraceKind::kFunction) return true;
    }
    return false;
  };
  std::vector<std::string> class_stack;  // enclosing class names
  std::vector<std::string> ns_stack;     // enclosing namespace chains

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_punct(t, i, "{")) {
      if (inside_function()) {
        stack.push_back({BraceKind::kOther});
        continue;
      }
      FunctionInfo fn;
      std::string cls;
      std::string ns_name;
      BraceKind kind = classify_brace(t, i, &fn, &cls, &ns_name);
      Scope scope{kind};
      if (kind == BraceKind::kFunction) {
        if (fn.class_name.empty() && !class_stack.empty()) {
          fn.class_name = class_stack.back();
        }
        for (const std::string& n : ns_stack) {
          if (n.empty()) continue;  // anonymous: contributes no segment
          if (!fn.ns.empty()) fn.ns += "::";
          fn.ns += n;
        }
        fn.head = statement_head(t, i);
        scope.fn_index = out.functions.size();
        out.functions.push_back(fn);
      } else if (kind == BraceKind::kClass) {
        scope.class_index = out.classes.size();
        out.classes.push_back(ClassRange{cls, i, 0});
        class_stack.push_back(cls);
      } else if (kind == BraceKind::kNamespace) {
        ns_stack.push_back(ns_name);
      }
      stack.push_back(scope);
      continue;
    }
    if (is_punct(t, i, "}")) {
      if (stack.empty()) continue;
      Scope s = stack.back();
      stack.pop_back();
      if (s.kind == BraceKind::kFunction) {
        out.functions[s.fn_index].close = i;
      } else if (s.kind == BraceKind::kClass) {
        out.classes[s.class_index].close = i;
        class_stack.pop_back();
      } else if (s.kind == BraceKind::kNamespace) {
        if (!ns_stack.empty()) ns_stack.pop_back();
      }
    }
  }
  // Unterminated scopes (lexer never fails, so just close at EOF).
  for (FunctionInfo& f : out.functions) {
    if (f.close == 0) f.close = t.empty() ? 0 : t.size() - 1;
  }
  for (ClassRange& c : out.classes) {
    if (c.close == 0) c.close = t.empty() ? 0 : t.size() - 1;
  }
  return out;
}

// ---- extraction helpers -----------------------------------------------------

namespace {

bool member_access_before(const Toks& t, std::size_t i) {
  return i > 0 && (is_punct(t, i - 1, ".") || is_punct(t, i - 1, "->"));
}

// Idents that can never be call names.
bool call_keyword(const std::string& s) {
  static const std::set<std::string> k = {
      "if",         "for",       "while",    "switch",          "return",
      "sizeof",     "alignof",   "decltype", "noexcept",        "catch",
      "throw",      "new",       "delete",   "assert",          "defined",
      "static_assert",           "static_cast",                 "dynamic_cast",
      "reinterpret_cast",        "const_cast",                  "typeid",
      "alignas",    "operator",  "int",      "float",           "double",
      "char",       "bool",      "auto",     "void",            "unsigned",
      "signed",     "long",      "short",    "co_return",       "co_await"};
  return k.count(s) != 0;
}

// Idents after which `name(...)` is an expression, not a declaration.
bool expression_keyword(const std::string& s) {
  return s == "return" || s == "throw" || s == "else" || s == "do" ||
         s == "case" || s == "co_return" || s == "co_await";
}

void extract_calls(const Toks& t, const FunctionInfo& fn, FunctionDef& def) {
  for (std::size_t i = fn.open + 1; i < fn.close; ++i) {
    if (t[i].kind != TokKind::kIdent || !is_punct(t, i + 1, "(")) continue;
    if (call_keyword(t[i].text)) continue;
    // Qualifier chain `a::b::name(`.
    std::size_t j = i;
    std::string qual;
    while (j >= 2 && is_punct(t, j - 1, "::") &&
           t[j - 2].kind == TokKind::kIdent) {
      qual = qual.empty() ? t[j - 2].text : t[j - 2].text + "::" + qual;
      j -= 2;
    }
    const bool member = member_access_before(t, j);
    if (!member && qual.empty()) {
      // `Type name(...)` declares a variable; `return name(...)` calls it.
      if (j > 0 && t[j - 1].kind == TokKind::kIdent &&
          !expression_keyword(t[j - 1].text)) {
        continue;
      }
      if (j > 0 && is_punct(t, j - 1, ">")) continue;  // templated decl type
    }
    // Receiver identifier chain, recorded only when it parses cleanly back
    // to a statement-ish boundary — a partial chain would type the wrong
    // object.
    std::vector<std::string> receiver;
    if (member) {
      std::size_t r = j - 1;  // the '.' or '->'
      while (true) {
        if (r == 0 || t[r - 1].kind != TokKind::kIdent) {
          receiver.clear();  // `)`, `]`, `*`...: expression receiver
          break;
        }
        receiver.insert(receiver.begin(), t[r - 1].text);
        if (r >= 2 &&
            (is_punct(t, r - 2, ".") || is_punct(t, r - 2, "->"))) {
          r -= 2;
          continue;
        }
        if (r >= 2 && is_punct(t, r - 2, "::")) {
          receiver.clear();  // qualified receiver: out of scope, stay coarse
        }
        break;
      }
    }
    def.calls.push_back(
        CallSite{t[i].text, qual, std::move(receiver), member, i, t[i].line});
  }
}

void extract_randoms(const Toks& t, const FunctionInfo& fn, FunctionDef& def) {
  for (std::size_t i = fn.open + 1; i < fn.close; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool member = member_access_before(t, i);
    if ((s == "rand" || s == "srand") && is_punct(t, i + 1, "(") && !member) {
      def.randoms.push_back({t[i].line, s + "()"});
    } else if (s == "random_device" && !member) {
      def.randoms.push_back({t[i].line, "std::random_device"});
    } else if ((s == "mt19937" || s == "mt19937_64") &&
               !is_punct(t, i + 1, "::") && !is_punct(t, i + 1, ">") &&
               !is_punct(t, i + 1, ",")) {
      bool unseeded = false;
      std::size_t j = i + 1;
      if (j < t.size() && t[j].kind == TokKind::kIdent) {
        std::size_t k = j + 1;
        if (is_punct(t, k, ";") || is_punct(t, k, ",") ||
            is_punct(t, k, ")")) {
          unseeded = true;
        } else if (is_punct(t, k, "(") || is_punct(t, k, "{")) {
          unseeded = is_punct(t, k + 1, t[k].text == "(" ? ")" : "}");
        }
      } else if (is_punct(t, j, "(") || is_punct(t, j, "{")) {
        unseeded = is_punct(t, j + 1, t[j].text == "(" ? ")" : "}");
      }
      if (unseeded) {
        def.randoms.push_back({t[i].line, "unseeded std::" + s});
      }
    }
  }
}

bool guard_type(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

// Token index closing the innermost block containing token `i` (or the
// function's own '}').
std::size_t enclosing_block_end(const Toks& t, std::size_t i,
                                std::size_t fn_close) {
  int depth = 0;
  for (std::size_t q = i + 1; q <= fn_close && q < t.size(); ++q) {
    if (is_punct(t, q, "{")) ++depth;
    else if (is_punct(t, q, "}")) {
      if (depth == 0) return q;
      --depth;
    }
  }
  return fn_close;
}

void extract_locks(const Toks& t, const FunctionInfo& fn, FunctionDef& def,
                   int& group_counter) {
  for (std::size_t i = fn.open + 1; i < fn.close; ++i) {
    if (t[i].kind != TokKind::kIdent || !guard_type(t[i].text)) continue;
    std::size_t j = i + 1;
    if (is_punct(t, j, "<")) {
      // Skip the template argument list; `>>` counts twice.
      int depth = 0;
      for (; j < fn.close; ++j) {
        if (is_punct(t, j, "<")) ++depth;
        else if (is_punct(t, j, ">") && --depth == 0) { ++j; break; }
        else if (is_punct(t, j, ">>") && (depth -= 2) <= 0) { ++j; break; }
      }
    }
    if (j >= fn.close || t[j].kind != TokKind::kIdent) continue;
    std::size_t args_open = j + 1;
    const bool paren = is_punct(t, args_open, "(");
    const bool brace = is_punct(t, args_open, "{");
    if (!paren && !brace) continue;  // default-constructed guard: no mutex
    std::size_t args_close = paren
                                 ? match_forward(t, args_open, "(", ")")
                                 : match_forward(t, args_open, "{", "}");
    if (args_close == npos || args_close > fn.close) continue;
    // Split the argument list on top-level commas.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    {
      int depth = 0;
      std::size_t start = args_open + 1;
      for (std::size_t q = args_open + 1; q < args_close; ++q) {
        if (is_punct(t, q, "(") || is_punct(t, q, "[") || is_punct(t, q, "{"))
          ++depth;
        else if (is_punct(t, q, ")") || is_punct(t, q, "]") ||
                 is_punct(t, q, "}"))
          --depth;
        else if (depth == 0 && is_punct(t, q, ",")) {
          if (q > start) args.push_back({start, q});
          start = q + 1;
        }
      }
      if (args_close > start) args.push_back({start, args_close});
    }
    bool deferred = false;
    for (const auto& [b, e] : args) {
      for (std::size_t q = b; q < e; ++q) {
        if (is_ident(t, q, "defer_lock")) deferred = true;
      }
    }
    if (deferred) continue;  // not acquired at the declaration site
    const int group = group_counter++;
    const std::size_t scope_end = enclosing_block_end(t, args_close, fn.close);
    for (const auto& [b, e] : args) {
      LockSite site;
      site.tok = i;
      site.group = group;
      site.line = t[i].line;
      site.scope_end = scope_end;
      bool qualified = false;
      std::vector<std::string> path;
      for (std::size_t q = b; q < e; ++q) {
        if (t[q].kind != TokKind::kIdent) continue;
        if (t[q].text == "adopt_lock" || t[q].text == "try_to_lock" ||
            t[q].text == "std") {
          continue;
        }
        if (t[q].text == "this") continue;
        if (!path.empty() && is_punct(t, q - 1, "::")) qualified = true;
        path.push_back(t[q].text);
        if (!site.expr.empty()) {
          site.expr += is_punct(t, q - 1, "::")
                           ? "::"
                           : (is_punct(t, q - 1, "->") ? "->" : ".");
        }
        site.expr += t[q].text;
      }
      if (path.empty()) continue;  // tag-only argument
      site.path = std::move(path);
      site.qualified = qualified;
      def.locks.push_back(std::move(site));
    }
  }
}

// Candidate local/parameter bindings `TypeIdent [&*]* name` — resolved
// against known classes only at query time, so stray expression shapes that
// happen to match never matter.
void extract_local_types(const Toks& t, const FunctionInfo& fn,
                         FunctionDef& def) {
  for (std::size_t i = fn.head; i + 1 < fn.close; ++i) {
    if (t[i].kind != TokKind::kIdent || call_keyword(t[i].text)) continue;
    if (t[i].text == "const" || t[i].text == "static") continue;
    std::size_t j = i + 1;
    while (is_punct(t, j, "&") || is_punct(t, j, "*") ||
           is_punct(t, j, "&&")) {
      ++j;
    }
    if (j >= fn.close || t[j].kind != TokKind::kIdent ||
        call_keyword(t[j].text)) {
      continue;
    }
    if (!(is_punct(t, j + 1, "=") || is_punct(t, j + 1, ",") ||
          is_punct(t, j + 1, ")") || is_punct(t, j + 1, ";") ||
          is_punct(t, j + 1, "{") || is_punct(t, j + 1, ":"))) {
      continue;
    }
    def.local_types.emplace(t[j].text, t[i].text);
  }
}

bool mutex_type_name(const std::string& s) {
  return s == "mutex" || s == "shared_mutex" || s == "recursive_mutex" ||
         s == "timed_mutex" || s == "shared_timed_mutex" ||
         s == "recursive_timed_mutex";
}

// Member declarations of one class body: statements at class depth, with
// nested classes, enums and function bodies skipped.
void extract_members(const Toks& t, const ClassRange& c,
                     std::map<std::string, MemberInfo>& out) {
  std::vector<std::size_t> stmt;
  std::size_t i = c.open + 1;
  auto stmt_has = [&](const char* kw) {
    for (std::size_t s : stmt) {
      if (is_ident(t, s, kw)) return true;
    }
    return false;
  };
  auto process = [&]() {
    if (stmt.empty()) return;
    for (const char* kw : {"using", "typedef", "friend", "template",
                           "operator", "static_assert", "enum", "class",
                           "struct", "union", "public", "protected",
                           "private", "virtual"}) {
      if (stmt_has(kw)) return;
    }
    // Cut at the first top-level '=' / ':' (initialiser, bitfield).
    int angle = 0;
    std::size_t cut = stmt.size();
    for (std::size_t s = 0; s < stmt.size(); ++s) {
      if (is_punct(t, stmt[s], "<")) ++angle;
      else if (is_punct(t, stmt[s], ">")) --angle;
      else if (is_punct(t, stmt[s], ">>")) angle -= 2;
      else if (angle <= 0 && (is_punct(t, stmt[s], "=") ||
                              is_punct(t, stmt[s], ":"))) {
        cut = s;
        break;
      }
    }
    stmt.resize(cut);
    // Any parenthesis left means a method declaration, not a data member.
    for (std::size_t s : stmt) {
      if (is_punct(t, s, "(")) return;
    }
    // Trim trailing array extents.
    while (!stmt.empty() && (is_punct(t, stmt.back(), "]") ||
                             is_punct(t, stmt.back(), "[") ||
                             t[stmt.back()].kind == TokKind::kNumber)) {
      stmt.pop_back();
    }
    if (stmt.empty() || t[stmt.back()].kind != TokKind::kIdent) return;
    const std::string name = t[stmt.back()].text;
    stmt.pop_back();
    MemberInfo info;
    angle = 0;
    for (std::size_t s : stmt) {
      if (is_punct(t, s, "<")) ++angle;
      else if (is_punct(t, s, ">")) --angle;
      else if (is_punct(t, s, ">>")) angle -= 2;
      else if (angle <= 0 && t[s].kind == TokKind::kIdent &&
               t[s].text != "const" && t[s].text != "mutable" &&
               t[s].text != "static" && t[s].text != "volatile" &&
               t[s].text != "constexpr" && t[s].text != "inline" &&
               t[s].text != "std") {
        info.type_key = t[s].text;
        if (mutex_type_name(t[s].text)) info.is_mutex = true;
      }
    }
    if (!info.type_key.empty()) out.emplace(name, info);
  };
  while (i < c.close && i < t.size()) {
    if (is_punct(t, i, "{")) {
      std::size_t close = match_forward(t, i, "{", "}");
      if (close == npos || close > c.close) close = c.close;
      const bool brace_init = !stmt.empty() &&
                              t[stmt.back()].kind == TokKind::kIdent &&
                              !stmt_has("enum") && !stmt_has("class") &&
                              !stmt_has("struct") && !stmt_has("union");
      if (!brace_init) stmt.clear();  // function body / nested type
      i = close + 1;
      continue;
    }
    if (is_punct(t, i, ";")) {
      process();
      stmt.clear();
      ++i;
      continue;
    }
    if (is_punct(t, i, ":") && stmt.size() == 1 &&
        (is_ident(t, stmt[0], "public") || is_ident(t, stmt[0], "private") ||
         is_ident(t, stmt[0], "protected"))) {
      stmt.clear();
      ++i;
      continue;
    }
    stmt.push_back(i);
    ++i;
  }
}

}  // namespace

// ---- ProjectIndex -----------------------------------------------------------

void ProjectIndex::add_file(const std::string& path,
                            const std::string& source) {
  LexResult lx = lex(source);
  const Toks& t = lx.tokens;
  FileIndex& fi = files_[path];
  fi.allows = lx.allows;

  // Class hierarchy edges (`class X : public Y, Z`).
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(is_ident(t, i, "class") || is_ident(t, i, "struct"))) continue;
    if (t[i + 1].kind != TokKind::kIdent) continue;
    const std::string name = t[i + 1].text;
    std::size_t j = i + 2;
    if (is_ident(t, j, "final")) ++j;
    if (!is_punct(t, j, ":")) continue;
    std::vector<std::string> bases;
    std::string last_ident;
    for (++j; j < t.size(); ++j) {
      if (is_punct(t, j, "{")) break;
      if (is_punct(t, j, ";")) break;  // forward-decl-ish; no body
      if (t[j].kind == TokKind::kIdent) {
        if (t[j].text == "public" || t[j].text == "protected" ||
            t[j].text == "private" || t[j].text == "virtual") {
          continue;
        }
        last_ident = t[j].text;  // last component of a qualified name wins
      } else if (is_punct(t, j, ",")) {
        if (!last_ident.empty()) bases.push_back(last_ident);
        last_ident.clear();
      }
    }
    if (!last_ident.empty()) bases.push_back(last_ident);
    if (!bases.empty() && is_punct(t, j, "{")) {
      auto& entry = bases_[name];
      entry.insert(entry.end(), bases.begin(), bases.end());
    }
  }

  Segmentation seg = segment(t);
  for (const ClassRange& c : seg.classes) {
    extract_members(t, c, members_[c.name]);
  }

  int lock_group = 0;
  for (const FunctionInfo& fn : seg.functions) {
    FunctionDef def;
    def.file = path;
    def.name = fn.name;
    def.class_name = fn.class_name;
    def.ns = fn.ns;
    def.head_line = fn.head < t.size() ? t[fn.head].line : 0;
    extract_calls(t, fn, def);
    extract_randoms(t, fn, def);
    extract_locks(t, fn, def, lock_group);
    extract_local_types(t, fn, def);
    const std::size_t id = functions_.size();
    fi.function_ids.push_back(id);
    by_name_[fn.name].push_back(id);
    functions_.push_back(std::move(def));
  }
}

const FileIndex* ProjectIndex::file(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

const std::vector<std::size_t>* ProjectIndex::functions_named(
    const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::set<std::string> ProjectIndex::derived_from(
    const std::string& root) const {
  std::set<std::string> out{root};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, bases] : bases_) {
      if (out.count(name) != 0) continue;
      for (const std::string& b : bases) {
        if (out.count(b) != 0) {
          out.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
  return out;
}

std::set<std::string> ProjectIndex::ancestors_of(
    const std::string& cls) const {
  std::set<std::string> out;
  std::vector<std::string> frontier{cls};
  while (!frontier.empty()) {
    const std::string c = frontier.back();
    frontier.pop_back();
    auto it = bases_.find(c);
    if (it == bases_.end()) continue;
    for (const std::string& b : it->second) {
      if (out.insert(b).second) frontier.push_back(b);
    }
  }
  return out;
}

bool ProjectIndex::known_class(const std::string& name) const {
  return members_.count(name) != 0 || bases_.count(name) != 0;
}

const MemberInfo* ProjectIndex::member(const std::string& cls,
                                       const std::string& name) const {
  auto it = members_.find(cls);
  if (it == members_.end()) return nullptr;
  auto m = it->second.find(name);
  return m == it->second.end() ? nullptr : &m->second;
}

std::vector<std::string> ProjectIndex::classes_with_member(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [cls, members] : members_) {
    if (members.count(name) != 0) out.push_back(cls);
  }
  return out;  // map iteration is already sorted
}

bool determinism_exempt_path(const std::string& path) {
  return path.find("src/obs/") != std::string::npos ||
         path.find("src/util/") != std::string::npos;
}

// ---- file collection --------------------------------------------------------

const char* const kProjectTrees[4] = {"src", "tests", "bench", "examples"};

std::vector<fs::path> collect_lintable_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* tree : kProjectTrees) {
    const fs::path dir = root / tree;
    std::error_code ec;
    if (!fs::exists(dir, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() &&
          (ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc")) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });
  return files;
}

}  // namespace conlint
