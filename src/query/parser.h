// Parser: query text -> SelectStatement AST.
//
// Grammar (SQL subset):
//   select    := SELECT select_item (',' select_item)*
//                FROM table_ref (join | ',' table_ref)*
//                [WHERE expr] [GROUP BY expr (',' expr)*]
//                [ORDER BY expr [ASC|DESC] (',' ...)*] [LIMIT int] [';']
//   join      := [INNER] JOIN table_ref ON expr
//   table_ref := identifier [AS? identifier]
//   select_item := expr [AS? identifier] | '*'
// Expressions: OR > AND > NOT > comparison > additive > multiplicative >
// unary > primary; primaries are literals, column refs, function calls,
// parenthesized exprs, and IS [NOT] NULL postfix.
//
// Each literal built from a parameter token carries the token's ordinal
// (Expr::param_index, lexer.h); BETWEEN's duplicated operand keeps the same
// ordinals.

#ifndef DRUGTREE_QUERY_PARSER_H_
#define DRUGTREE_QUERY_PARSER_H_

#include <optional>
#include <string>
#include <vector>

#include "query/expr.h"
#include "query/lexer.h"
#include "util/result.h"

namespace drugtree {
namespace query {

struct SelectItem {
  ExprPtr expr;        // null for '*'
  std::string alias;   // output name; derived from expr if not given
  bool star = false;
};

struct TableRef {
  std::string table;   // catalog name
  std::string alias;   // defaults to the table name
};

struct OrderKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Parsed SELECT statement. Explicit JOIN ... ON conditions are folded into
/// `where` as conjuncts (the optimizer re-derives join predicates), so
/// `tables` is always a flat list.
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> select;
  std::vector<TableRef> tables;
  ExprPtr where;  // may be null
  std::vector<ExprPtr> group_by;
  std::vector<OrderKey> order_by;
  std::optional<int64_t> limit;

  /// A statement text that parses back to this statement (select items
  /// carry AS only for an alias other than the item's own text).
  std::string ToString() const;
};

/// Parses one SELECT statement.
util::Result<SelectStatement> ParseQuery(const std::string& text);

/// Parses the SELECT statement of a lexed statement's tokens.
util::Result<SelectStatement> ParseTokens(const std::vector<Token>& tokens);

/// A top-level statement: an optional EXPLAIN [ANALYZE] prefix plus a SELECT.
struct Statement {
  ExplainMode explain = ExplainMode::kNone;
  SelectStatement select;
};

/// Parses a statement, consuming an optional leading EXPLAIN [ANALYZE].
util::Result<Statement> ParseStatement(const std::string& text);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PARSER_H_
