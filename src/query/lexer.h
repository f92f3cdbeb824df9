// Lexer for the DrugTree query language (a SQL subset with tree predicates),
// and the one place literals are factored out of a statement.
//
// In the pass that tokenizes a statement, Lex also renders its plan-cache
// fingerprint and collects its parameter literals in token order: every
// integer, float and string literal becomes the placeholder "?N" (N its
// ordinal), and the parser tags the literal it builds from that token with
// N. Some literals are statement shape and stay verbatim: the token after
// LIMIT, the keywords TRUE, FALSE and NULL, and every literal of the select
// list and of GROUP BY, whose rendering names output and group columns. A
// leading EXPLAIN [ANALYZE] is left out of the fingerprint and reported
// separately, so a statement and its EXPLAIN share one plan.

#ifndef DRUGTREE_QUERY_LEXER_H_
#define DRUGTREE_QUERY_LEXER_H_

#include <cstdint>
#include <forward_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace query {

enum class TokenKind : uint8_t {
  kKeyword,     // SELECT, FROM, WHERE, ... (uppercased)
  kIdentifier,  // table/column names; may contain one '.' qualifier
  kString,      // 'literal'
  kInteger,
  kFloat,
  kOperator,    // = <> < <= > >= + - * / ( ) , . ;
  kEnd,
};

/// One token. Its text is a view, not a copy: into the statement text for
/// identifiers, numbers, operators and most strings, into static storage
/// for keywords (upper-cased) and `!=` (read as `<>`), and into its
/// LexedStatement for a string whose quotes were doubled. The statement
/// text must outlive the tokens (see Lex).
struct Token {
  /// Keywords upper-cased, identifiers as written, a string's unescaped
  /// contents, a number's spelling.
  std::string_view text;
  int64_t int_value = 0;
  double float_value = 0.0;
  uint32_t position = 0;  // byte offset in the input, for error messages
  /// The parameter ordinal of a literal token ("?N" in the fingerprint);
  /// -1 for every other token, and for literals that are statement shape.
  int param = -1;
  TokenKind kind = TokenKind::kEnd;
};

/// EXPLAIN prefix attached to a statement. kPlan prints the physical plan
/// without executing; kAnalyze executes and annotates each operator with
/// rows_out / Next() calls / cumulative time.
enum class ExplainMode {
  kNone,
  kPlan,     // EXPLAIN <select>
  kAnalyze,  // EXPLAIN ANALYZE <select>
};

/// One lexed statement.
struct LexedStatement {
  ExplainMode explain = ExplainMode::kNone;
  /// The tokens after the EXPLAIN prefix, ending with a kEnd token.
  std::vector<Token> tokens;
  /// The plan-cache key: the tokens' spellings joined by single spaces,
  /// each parameter literal as "?N". Statements that differ only in
  /// parameter values (or in case and spacing) share it.
  std::string fingerprint;
  /// The parameter literals' values, by ordinal.
  std::vector<storage::Value> params;
  /// Text the tokens view besides the caller's string: the statement when
  /// Lex took ownership of it, and the unescaped contents of strings with
  /// doubled quotes. Null when there is none; list nodes never move, so
  /// the views survive moving or copying the statement.
  std::shared_ptr<std::forward_list<std::string>> owned;

  /// The fingerprint with the literal values in place: the result-cache
  /// key.
  std::string Canonical() const;
};

/// Tokenizes a query string. Keywords are recognized case-insensitively and
/// reported upper-case; identifiers keep their original case. The tokens
/// view `text`, which must outlive them; a lex allocates only its token
/// vector, the fingerprint and the parameter values.
util::Result<LexedStatement> Lex(const std::string& text);

/// Lexes a temporary statement: the LexedStatement keeps the text alive
/// for its tokens.
util::Result<LexedStatement> Lex(std::string&& text);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_LEXER_H_
