#include "query/lexer.h"

#include <charconv>
#include <string_view>

#include "util/string_util.h"

namespace drugtree {
namespace query {

namespace {

/// The upper-case spelling of `word`, an identifier's characters, when it
/// is a reserved keyword (matched case-insensitively), else empty.
std::string_view MatchKeyword(std::string_view word) {
  static constexpr std::string_view kKeywords[] = {
      "SELECT", "FROM",  "WHERE", "AND",   "OR",    "NOT",     "JOIN",
      "ON",     "GROUP", "BY",    "ORDER", "ASC",   "DESC",    "LIMIT",
      "AS",     "TRUE",  "FALSE", "NULL",  "INNER", "IS",      "DISTINCT",
      "BETWEEN", "EXPLAIN", "ANALYZE",
  };
  for (std::string_view keyword : kKeywords) {
    if (keyword.size() != word.size()) continue;
    // Clearing bit 5 upper-cases a letter; it maps no digit or underscore
    // onto a letter.
    size_t i = 0;
    while (i < word.size() && (word[i] & ~0x20) == keyword[i]) ++i;
    if (i == word.size()) return keyword;
  }
  return {};
}

// ASCII classification, as <cctype> does in the "C" locale the engine runs
// in, without a library call per character.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsIdentifierStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentifierChar(char c) { return IsIdentifierStart(c) || IsDigit(c); }

bool IsLiteral(TokenKind kind) {
  return kind == TokenKind::kInteger || kind == TokenKind::kFloat ||
         kind == TokenKind::kString;
}

/// Appends the spelling that lexes back to `tok`: a string literal quoted,
/// with its quotes doubled.
void AppendSpelling(const Token& tok, std::string* out) {
  if (tok.kind != TokenKind::kString) {
    *out += tok.text;
    return;
  }
  out->push_back('\'');
  for (char c : tok.text) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

storage::Value LiteralValue(const Token& tok) {
  switch (tok.kind) {
    case TokenKind::kInteger:
      return storage::Value::Int64(tok.int_value);
    case TokenKind::kFloat:
      return storage::Value::Double(tok.float_value);
    default:
      return storage::Value::String(std::string(tok.text));
  }
}

/// Lexes `text` into `out`, whose `owned` list (if any) already holds the
/// text when the statement owns it.
util::Result<LexedStatement> LexInto(std::string_view text,
                                     LexedStatement out) {
  std::vector<Token>& tokens = out.tokens;
  tokens.reserve(text.size() / 4 + 2);
  out.fingerprint.reserve(text.size() + text.size() / 4);
  size_t i = 0;
  const size_t n = text.size();
  auto error = [&](const std::string& msg) {
    return util::Status::ParseError(
        util::StringPrintf("query position %zu: %s", i, msg.c_str()));
  };
  // Literals of the select list and of GROUP BY are shape: an unaliased
  // select item is named by its text, and a group key's text names its
  // column and matches it to select items.
  bool shape_clause = false;
  bool after_limit = false;
  // Appends `tok` to the statement, its fingerprint and its parameters.
  auto emit = [&](Token& tok) {
    if (tok.kind == TokenKind::kKeyword) {
      if (tokens.empty() && out.explain == ExplainMode::kNone &&
          tok.text == "EXPLAIN") {
        out.explain = ExplainMode::kPlan;
        return;
      }
      if (tokens.empty() && out.explain == ExplainMode::kPlan &&
          tok.text == "ANALYZE") {
        out.explain = ExplainMode::kAnalyze;
        return;
      }
      if (tok.text == "SELECT" || tok.text == "GROUP") {
        shape_clause = true;
      } else if (tok.text == "FROM" || tok.text == "ORDER") {
        shape_clause = false;
      }
    }
    if (!tokens.empty()) out.fingerprint.push_back(' ');
    if (IsLiteral(tok.kind) && !shape_clause && !after_limit) {
      tok.param = static_cast<int>(out.params.size());
      out.params.push_back(LiteralValue(tok));
      char digits[16];
      const auto end = std::to_chars(digits, digits + sizeof(digits),
                                     tok.param).ptr;
      out.fingerprint.push_back('?');
      out.fingerprint.append(digits, end);
    } else {
      AppendSpelling(tok, &out.fingerprint);
    }
    after_limit = tok.kind == TokenKind::kKeyword && tok.text == "LIMIT";
    tokens.push_back(tok);
  };
  while (i < n) {
    char c = text[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<uint32_t>(i);
    if (IsIdentifierStart(c)) {
      size_t start = i;
      while (i < n && IsIdentifierChar(text[i])) ++i;
      // Qualified identifier "a.b", taken verbatim.
      if (i + 1 < n && text[i] == '.' && IsIdentifierStart(text[i + 1])) {
        ++i;
        while (i < n && IsIdentifierChar(text[i])) ++i;
        tok.kind = TokenKind::kIdentifier;
        tok.text = text.substr(start, i - start);
        emit(tok);
        continue;
      }
      const std::string_view word = text.substr(start, i - start);
      const std::string_view keyword = MatchKeyword(word);
      tok.kind = keyword.empty() ? TokenKind::kIdentifier : TokenKind::kKeyword;
      tok.text = keyword.empty() ? word : keyword;
      emit(tok);
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
      const std::string_view num = text.substr(start, i - start);
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
      emit(tok);
      continue;
    }
    if (c == '\'') {
      const size_t start = ++i;
      bool doubled = false;
      bool closed = false;
      while (i < n) {
        if (text[i] == '\'') {
          if (i + 1 < n && text[i + 1] == '\'') {
            doubled = true;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) return error("unterminated string literal");
      tok.kind = TokenKind::kString;
      tok.text = text.substr(start, i++ - start);
      if (doubled) {
        // The contents differ from the spelling: keep them beside it.
        std::string unescaped;
        for (size_t k = 0; k < tok.text.size(); ++k) {
          unescaped.push_back(tok.text[k]);
          if (tok.text[k] == '\'') ++k;
        }
        if (out.owned == nullptr) {
          out.owned = std::make_shared<std::forward_list<std::string>>();
        }
        out.owned->push_front(std::move(unescaped));
        tok.text = out.owned->front();
      }
      emit(tok);
      continue;
    }
    // Operators.
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if ((c == '<' && (next == '>' || next == '=')) ||
        ((c == '>' || c == '!') && next == '=')) {
      tok.kind = TokenKind::kOperator;
      tok.text = c == '!' ? std::string_view("<>") : text.substr(i, 2);
      i += 2;
      emit(tok);
      continue;
    }
    if (std::string_view("=<>+-*/(),.;").find(c) != std::string_view::npos) {
      tok.kind = TokenKind::kOperator;
      tok.text = text.substr(i++, 1);
      emit(tok);
      continue;
    }
    return error(util::StringPrintf("unexpected character '%c'", c));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = static_cast<uint32_t>(n);
  tokens.push_back(end);
  return out;
}

}  // namespace

std::string LexedStatement::Canonical() const {
  std::string out;
  out.reserve(fingerprint.size() + 16);
  for (const Token& tok : tokens) {
    if (tok.kind == TokenKind::kEnd) break;
    if (!out.empty()) out.push_back(' ');
    AppendSpelling(tok, &out);
  }
  return out;
}

util::Result<LexedStatement> Lex(const std::string& text) {
  return LexInto(text, LexedStatement());
}

util::Result<LexedStatement> Lex(std::string&& text) {
  LexedStatement out;
  out.owned = std::make_shared<std::forward_list<std::string>>();
  out.owned->push_front(std::move(text));
  const std::string_view owned = out.owned->front();
  return LexInto(owned, std::move(out));
}

}  // namespace query
}  // namespace drugtree
