// Token scanner for conlint (tools/conlint/README in DESIGN.md §7).
//
// conlint deliberately avoids libclang: the project invariants it checks
// (Layer reentrancy, seeded randomness, lock order, include hygiene) are
// all visible at token level, and a dependency-free
// tool can run in every environment the build runs in.
// The lexer understands exactly as much C++ as the rules need: comments
// (where conlint's own directives live), string/char literals including
// raw strings, preprocessor lines, multi-char operators, identifiers and
// numbers. It never macro-expands: rules see the tokens the programmer
// wrote, which is what a convention checker should judge.
#pragma once

#include <string>
#include <vector>

namespace conlint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals (pp-numbers)
  kString,   // "..." including raw strings, with prefixes
  kChar,     // '...'
  kPunct,    // operators and punctuation, longest-match ("::", "->", "==")
  kPreproc,  // one token per preprocessor directive, text = whole line
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

// A // conlint:allow(<rule>): <reason> directive. Suppresses diagnostics of
// `rule` on its own line and on the following line (comment-above style).
struct Allow {
  std::string rule;
  std::string reason;
  int line = 0;
};

// Problems with conlint's own directives (unknown form, missing reason).
// Reported under the `directive` rule and not suppressible.
struct DirectiveError {
  int line = 0;
  std::string message;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Allow> allows;
  std::vector<DirectiveError> directive_errors;
  bool has_pragma_once = false;
};

// Tokenizes `source`. Never throws on malformed input: an unterminated
// literal or comment simply ends at EOF (the compiler will complain, not
// us).
LexResult lex(const std::string& source);

}  // namespace conlint
