// Lexer for the DrugTree query language (a SQL subset with tree predicates).

#ifndef DRUGTREE_QUERY_LEXER_H_
#define DRUGTREE_QUERY_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace drugtree {
namespace query {

enum class TokenKind {
  kKeyword,     // SELECT, FROM, WHERE, ... (uppercased)
  kIdentifier,  // table/column names; may contain one '.' qualifier
  kString,      // 'literal'
  kInteger,
  kFloat,
  kOperator,    // = <> < <= > >= + - * / ( ) , . ;
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // keyword/identifier uppercased? identifiers keep case
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t position = 0;  // byte offset in the input, for error messages
};

/// Tokenizes a query string. Keywords are recognized case-insensitively and
/// reported upper-case; identifiers keep their original case.
util::Result<std::vector<Token>> Lex(const std::string& text);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_LEXER_H_
