#include "lexer.h"

#include <cctype>
#include <cstring>

namespace conlint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Three-then-two-then-one longest-match punctuation. Covers everything the
// rules inspect; unknown characters fall through as single-char tokens.
const char* const kPunct3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPunct2[] = {"::", "->", "++", "--", "<<", ">>", "<=", ">=",
                               "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
                               "%=", "&=", "|=", "^=", "##"};

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Parses the body of a comment for conlint directives. `body` is the
// comment text without its // or /* */ delimiters.
void parse_directive(const std::string& body, int line, LexResult& out) {
  std::size_t pos = body.find("conlint:");
  if (pos == std::string::npos) return;
  std::string rest = trim(body.substr(pos + std::strlen("conlint:")));
  if (rest.rfind("allow(", 0) == 0) {
    std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      out.directive_errors.push_back({line, "conlint:allow missing ')'"});
      return;
    }
    std::string rule = trim(rest.substr(std::strlen("allow("),
                                        close - std::strlen("allow(")));
    std::string tail = trim(rest.substr(close + 1));
    if (tail.empty() || tail[0] != ':' || trim(tail.substr(1)).empty()) {
      out.directive_errors.push_back(
          {line, "conlint:allow(" + rule +
                     ") requires a reason: \"// conlint:allow(" + rule +
                     "): <why this exception is sound>\""});
      return;
    }
    out.allows.push_back(Allow{rule, trim(tail.substr(1)), line});
    return;
  }
  out.directive_errors.push_back(
      {line, "unrecognised conlint directive: '" + rest + "'"});
}

}  // namespace

LexResult lex(const std::string& source) {
  LexResult out;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  bool line_start = true;  // only whitespace seen so far on this line

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k) {
      if (source[i] == '\n') {
        ++line;
        line_start = true;
      }
      ++i;
    }
  };

  while (i < n) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Preprocessor directive: swallow the logical line (incl. \-splices).
    if (c == '#' && line_start) {
      const int start_line = line;
      std::string text;
      while (i < n) {
        if (source[i] == '\\' && i + 1 < n &&
            (source[i + 1] == '\n' ||
             (source[i + 1] == '\r' && i + 2 < n && source[i + 2] == '\n'))) {
          advance(source[i + 1] == '\r' ? 3 : 2);
          text += ' ';
          continue;
        }
        if (source[i] == '\n') break;
        // Comments may trail a directive; let the main loop handle them.
        if (source[i] == '/' && i + 1 < n &&
            (source[i + 1] == '/' || source[i + 1] == '*')) {
          break;
        }
        text += source[i];
        advance(1);
      }
      out.tokens.push_back({TokKind::kPreproc, trim(text), start_line});
      if (out.tokens.back().text.rfind("#pragma", 0) == 0 &&
          out.tokens.back().text.find("once") != std::string::npos) {
        out.has_pragma_once = true;
      }
      continue;
    }
    line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const int start_line = line;
      std::size_t end = source.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_directive(source.substr(i + 2, end - i - 2), start_line, out);
      advance(end - i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const int start_line = line;
      std::size_t end = source.find("*/", i + 2);
      const std::size_t stop = end == std::string::npos ? n : end;
      parse_directive(source.substr(i + 2, stop - i - 2), start_line, out);
      advance((end == std::string::npos ? n : end + 2) - i);
      continue;
    }
    // Raw string literal: R"delim( ... )delim" with optional prefix.
    {
      std::size_t r = i;
      if ((source[r] == 'u' || source[r] == 'U' || source[r] == 'L') &&
          r + 1 < n) {
        if (source[r] == 'u' && source[r + 1] == '8') ++r;
        ++r;
      }
      if (r < n && source[r] == 'R' && r + 1 < n && source[r + 1] == '"') {
        std::size_t p = r + 2;
        std::string delim;
        while (p < n && source[p] != '(') delim += source[p++];
        std::string closer = ")" + delim + "\"";
        std::size_t end = source.find(closer, p);
        const std::size_t stop = end == std::string::npos
                                     ? n
                                     : end + closer.size();
        const int start_line = line;
        out.tokens.push_back(
            {TokKind::kString, source.substr(i, stop - i), start_line});
        advance(stop - i);
        continue;
      }
    }
    // Ordinary string/char literal (with escape handling and prefixes).
    if (c == '"' || c == '\'' ||
        ((c == 'u' || c == 'U' || c == 'L') && i + 1 < n &&
         (source[i + 1] == '"' || source[i + 1] == '\'') &&
         !ident_char(i > 0 ? source[i - 1] : ' '))) {
      std::size_t p = i;
      if (c != '"' && c != '\'') ++p;
      const char quote = source[p];
      const int start_line = line;
      std::size_t q = p + 1;
      while (q < n && source[q] != quote) {
        if (source[q] == '\\' && q + 1 < n) ++q;
        ++q;
      }
      const std::size_t stop = q < n ? q + 1 : n;
      out.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                            source.substr(i, stop - i), start_line});
      advance(stop - i);
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t q = i;
      while (q < n && ident_char(source[q])) ++q;
      out.tokens.push_back({TokKind::kIdent, source.substr(i, q - i), line});
      advance(q - i);
      continue;
    }
    // Number (pp-number: digits, letters, dots, exponent signs, and digit
    // separators — 1'000'000 is one token, not a number followed by a char
    // literal).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::size_t q = i;
      while (q < n && (ident_char(source[q]) || source[q] == '.' ||
                       (source[q] == '\'' && q + 1 < n &&
                        std::isalnum(static_cast<unsigned char>(
                            source[q + 1]))) ||
                       ((source[q] == '+' || source[q] == '-') && q > i &&
                        (source[q - 1] == 'e' || source[q - 1] == 'E' ||
                         source[q - 1] == 'p' || source[q - 1] == 'P')))) {
        ++q;
      }
      out.tokens.push_back({TokKind::kNumber, source.substr(i, q - i), line});
      advance(q - i);
      continue;
    }
    // Punctuation, longest match first.
    {
      bool matched = false;
      for (const char* p3 : kPunct3) {
        if (n - i >= 3 && source.compare(i, 3, p3) == 0) {
          out.tokens.push_back({TokKind::kPunct, p3, line});
          advance(3);
          matched = true;
          break;
        }
      }
      if (matched) continue;
      for (const char* p2 : kPunct2) {
        if (n - i >= 2 && source.compare(i, 2, p2) == 0) {
          out.tokens.push_back({TokKind::kPunct, p2, line});
          advance(2);
          matched = true;
          break;
        }
      }
      if (matched) continue;
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      advance(1);
    }
  }
  return out;
}

}  // namespace conlint
