#include "query/lexer.h"

#include <cctype>
#include <string_view>

#include "util/string_util.h"

namespace drugtree {
namespace query {

namespace {

/// The upper-case spelling of `word` when it is a reserved keyword (matched
/// case-insensitively), else empty.
std::string_view MatchKeyword(std::string_view word) {
  static constexpr std::string_view kKeywords[] = {
      "SELECT", "FROM",  "WHERE", "AND",   "OR",    "NOT",     "JOIN",
      "ON",     "GROUP", "BY",    "ORDER", "ASC",   "DESC",    "LIMIT",
      "AS",     "TRUE",  "FALSE", "NULL",  "INNER", "IS",      "DISTINCT",
      "BETWEEN", "EXPLAIN", "ANALYZE",
  };
  for (std::string_view keyword : kKeywords) {
    if (keyword.size() == word.size() &&
        util::EqualsIgnoreCase(keyword, word)) {
      return keyword;
    }
  }
  return {};
}

// ASCII classification, as <cctype> does in the "C" locale the engine runs
// in, without a library call per character.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsIdentifierStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentifierChar(char c) { return IsIdentifierStart(c) || IsDigit(c); }

}  // namespace

util::Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  auto error = [&](const std::string& msg) {
    return util::Status::ParseError(
        util::StringPrintf("query position %zu: %s", i, msg.c_str()));
  };
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    if (IsIdentifierStart(c)) {
      size_t start = i;
      while (i < n && IsIdentifierChar(text[i])) ++i;
      // Qualified identifier "a.b", taken verbatim.
      if (i + 1 < n && text[i] == '.' && IsIdentifierStart(text[i + 1])) {
        ++i;
        while (i < n && IsIdentifierChar(text[i])) ++i;
        tok.kind = TokenKind::kIdentifier;
        tok.text.assign(text, start, i - start);
        tokens.push_back(std::move(tok));
        continue;
      }
      const std::string_view word(text.data() + start, i - start);
      const std::string_view keyword = MatchKeyword(word);
      tok.kind = keyword.empty() ? TokenKind::kIdentifier : TokenKind::kKeyword;
      tok.text = keyword.empty() ? word : keyword;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (IsDigit(c)) {
      size_t start = i;
      bool is_float = false;
      while (i < n && IsDigit(text[i])) ++i;
      if (i < n && text[i] == '.' && i + 1 < n &&
          IsDigit(text[i + 1])) {
        is_float = true;
        ++i;
        while (i < n && IsDigit(text[i])) ++i;
      }
      if (i < n && (text[i] == 'e' || text[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
        if (i < n && IsDigit(text[i])) {
          is_float = true;
          while (i < n && IsDigit(text[i])) ++i;
        } else {
          i = save;
        }
      }
      const std::string_view num(text.data() + start, i - start);
      if (is_float) {
        DRUGTREE_ASSIGN_OR_RETURN(double v, util::ParseDouble(num));
        tok.kind = TokenKind::kFloat;
        tok.float_value = v;
      } else {
        DRUGTREE_ASSIGN_OR_RETURN(int64_t v, util::ParseInt64(num));
        tok.kind = TokenKind::kInteger;
        tok.int_value = v;
      }
      tok.text = num;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < n) {
        if (text[i] == '\'') {
          if (i + 1 < n && text[i + 1] == '\'') {
            s += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        s += text[i++];
      }
      if (!closed) return error("unterminated string literal");
      tok.kind = TokenKind::kString;
      tok.text = std::move(s);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Operators.
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if ((c == '<' && (next == '>' || next == '=')) ||
        ((c == '>' || c == '!') && next == '=')) {
      tok.kind = TokenKind::kOperator;
      tok.text = c == '!' ? std::string_view("<>")
                          : std::string_view(text.data() + i, 2);
      i += 2;
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::string_view("=<>+-*/(),.;").find(c) != std::string_view::npos) {
      tok.kind = TokenKind::kOperator;
      tok.text.assign(1, c);
      ++i;
      tokens.push_back(std::move(tok));
      continue;
    }
    return error(util::StringPrintf("unexpected character '%c'", c));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace query
}  // namespace drugtree
