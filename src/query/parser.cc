#include "query/parser.h"

#include <string_view>

#include "query/lexer.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Value;

namespace {

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  util::Result<SelectStatement> Parse() {
    SelectStatement stmt;
    DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    stmt.distinct = ConsumeKeyword("DISTINCT");
    // Select list.
    for (;;) {
      DRUGTREE_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt.select.push_back(std::move(item));
      if (!ConsumeOperator(",")) break;
    }
    DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    // Table refs with joins.
    DRUGTREE_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt.tables.push_back(std::move(first));
    std::vector<ExprPtr> join_conditions;
    for (;;) {
      if (ConsumeOperator(",")) {
        DRUGTREE_ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        stmt.tables.push_back(std::move(t));
        continue;
      }
      if (PeekKeyword("INNER") || PeekKeyword("JOIN")) {
        ConsumeKeyword("INNER");
        DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        DRUGTREE_ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        stmt.tables.push_back(std::move(t));
        DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("ON"));
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
        join_conditions.push_back(std::move(cond));
        continue;
      }
      break;
    }
    // WHERE.
    if (ConsumeKeyword("WHERE")) {
      DRUGTREE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    // Fold JOIN ... ON conditions into the WHERE conjunction.
    for (auto& cond : join_conditions) {
      stmt.where = stmt.where
                       ? Expr::Binary(BinaryOp::kAnd, stmt.where, cond)
                       : cond;
    }
    // GROUP BY.
    if (ConsumeKeyword("GROUP")) {
      DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!ConsumeOperator(",")) break;
      }
    }
    // ORDER BY.
    if (ConsumeKeyword("ORDER")) {
      DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderKey key;
        DRUGTREE_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          key.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
        if (!ConsumeOperator(",")) break;
      }
    }
    // LIMIT.
    if (ConsumeKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.kind != TokenKind::kInteger) {
        return Error("LIMIT expects an integer");
      }
      if (t.int_value < 0) return Error("LIMIT must be non-negative");
      stmt.limit = t.int_value;
      ++pos_;
    }
    ConsumeOperator(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing tokens");
    }
    return stmt;
  }

 private:
  util::Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (PeekOperator("*")) {
      ++pos_;
      item.star = true;
      return item;
    }
    DRUGTREE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (ConsumeKeyword("AS")) {
      const Token& t = Peek();
      if (t.kind != TokenKind::kIdentifier) {
        return Error("AS expects an identifier");
      }
      item.alias = t.text;
      ++pos_;
    } else if (Peek().kind == TokenKind::kIdentifier &&
               !PeekKeyword("FROM")) {
      item.alias = Peek().text;
      ++pos_;
    } else {
      item.alias = item.expr->ToString();
    }
    return item;
  }

  util::Result<TableRef> ParseTableRef() {
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdentifier) {
      return Error("expected table name");
    }
    TableRef ref;
    ref.table = t.text;
    ref.alias = t.text;
    ++pos_;
    if (ConsumeKeyword("AS")) {
      const Token& a = Peek();
      if (a.kind != TokenKind::kIdentifier) {
        return Error("AS expects an identifier");
      }
      ref.alias = a.text;
      ++pos_;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      ref.alias = Peek().text;
      ++pos_;
    }
    return ref;
  }

  // Expression precedence climbing.
  util::Result<ExprPtr> ParseExpr() { return ParseOr(); }

  util::Result<ExprPtr> ParseOr() {
    DRUGTREE_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Expr::Binary(BinaryOp::kOr, left, right);
    }
    return left;
  }

  util::Result<ExprPtr> ParseAnd() {
    DRUGTREE_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (ConsumeKeyword("AND")) {
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Expr::Binary(BinaryOp::kAnd, left, right);
    }
    return left;
  }

  util::Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Expr::Unary(UnaryOp::kNot, e);
    }
    return ParseComparison();
  }

  util::Result<ExprPtr> ParseComparison() {
    DRUGTREE_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // BETWEEN lo AND hi desugars to (left >= lo AND left <= hi); the AND
    // here belongs to BETWEEN, not to the logical conjunction.
    if (ConsumeKeyword("BETWEEN")) {
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("AND"));
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      return Expr::Binary(
          BinaryOp::kAnd, Expr::Binary(BinaryOp::kGe, left->Clone(), lo),
          Expr::Binary(BinaryOp::kLe, left, hi));
    }
    // IS [NOT] NULL postfix.
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      DRUGTREE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      // IS NULL must be true for NULLs, which '=' cannot express under
      // three-valued logic, so it becomes a dedicated function.
      ExprPtr test = Expr::Function("IS_NULL", {left});
      return negated ? Expr::Unary(UnaryOp::kNot, test) : test;
    }
    static const struct {
      const char* text;
      BinaryOp op;
    } kOps[] = {{"=", BinaryOp::kEq}, {"<>", BinaryOp::kNe},
                {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const auto& o : kOps) {
      if (PeekOperator(o.text)) {
        ++pos_;
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Expr::Binary(o.op, left, right);
      }
    }
    return left;
  }

  util::Result<ExprPtr> ParseAdditive() {
    DRUGTREE_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    for (;;) {
      if (PeekOperator("+")) {
        ++pos_;
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Expr::Binary(BinaryOp::kAdd, left, right);
      } else if (PeekOperator("-")) {
        ++pos_;
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Expr::Binary(BinaryOp::kSub, left, right);
      } else {
        return left;
      }
    }
  }

  util::Result<ExprPtr> ParseMultiplicative() {
    DRUGTREE_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    for (;;) {
      if (PeekOperator("*")) {
        ++pos_;
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Expr::Binary(BinaryOp::kMul, left, right);
      } else if (PeekOperator("/")) {
        ++pos_;
        DRUGTREE_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Expr::Binary(BinaryOp::kDiv, left, right);
      } else {
        return left;
      }
    }
  }

  util::Result<ExprPtr> ParseUnary() {
    if (PeekOperator("-")) {
      ++pos_;
      DRUGTREE_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, e);
    }
    return ParsePrimary();
  }

  util::Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInteger:
        ++pos_;
        return Literal(Value::Int64(t.int_value), t);
      case TokenKind::kFloat:
        ++pos_;
        return Literal(Value::Double(t.float_value), t);
      case TokenKind::kString:
        ++pos_;
        return Literal(Value::String(std::string(t.text)), t);
      case TokenKind::kKeyword:
        if (t.text == "TRUE") {
          ++pos_;
          return Expr::Literal(Value::Bool(true));
        }
        if (t.text == "FALSE") {
          ++pos_;
          return Expr::Literal(Value::Bool(false));
        }
        if (t.text == "NULL") {
          ++pos_;
          return Expr::Literal(Value::Null());
        }
        return Error("unexpected keyword " + std::string(t.text));
      case TokenKind::kIdentifier: {
        std::string name(t.text);
        ++pos_;
        if (PeekOperator("(")) {
          ++pos_;
          std::vector<ExprPtr> args;
          if (PeekOperator("*")) {
            // COUNT(*)
            ++pos_;
          } else if (!PeekOperator(")")) {
            for (;;) {
              DRUGTREE_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
              args.push_back(std::move(a));
              if (!ConsumeOperator(",")) break;
            }
          }
          if (!ConsumeOperator(")")) return Error("expected ')'");
          return Expr::Function(std::move(name), std::move(args));
        }
        return Expr::Column(std::move(name));
      }
      case TokenKind::kOperator:
        if (t.text == "(") {
          ++pos_;
          DRUGTREE_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          if (!ConsumeOperator(")")) return Error("expected ')'");
          return e;
        }
        return Error("unexpected operator " + std::string(t.text));
      case TokenKind::kEnd:
        return Error("unexpected end of query");
    }
    return Error("unexpected token");
  }

  /// A literal tagged with `token`'s parameter ordinal.
  static ExprPtr Literal(Value value, const Token& token) {
    ExprPtr literal = Expr::Literal(std::move(value));
    literal->param_index = token.param;
    return literal;
  }

  const Token& Peek() const { return tokens_[pos_]; }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }
  bool PeekOperator(std::string_view op) const {
    return Peek().kind == TokenKind::kOperator && Peek().text == op;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeOperator(std::string_view op) {
    if (PeekOperator(op)) {
      ++pos_;
      return true;
    }
    return false;
  }
  util::Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return util::Status::ParseError(util::StringPrintf(
          "query position %zu: expected %.*s",
          static_cast<size_t>(Peek().position),
          static_cast<int>(kw.size()), kw.data()));
    }
    return util::Status::OK();
  }
  util::Status Error(const std::string& msg) const {
    return util::Status::ParseError(util::StringPrintf(
        "query position %zu: %s", static_cast<size_t>(Peek().position),
        msg.c_str()));
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string SelectStatement::ToString() const {
  std::string out = distinct ? "SELECT DISTINCT " : "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i) out += ", ";
    if (select[i].star) {
      out += "*";
      continue;
    }
    const std::string item = select[i].expr->ToString();
    out += item;
    if (!select[i].alias.empty() && select[i].alias != item) {
      out += " AS " + select[i].alias;
    }
  }
  out += " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i) out += ", ";
    out += tables[i].table;
    if (tables[i].alias != tables[i].table) out += " " + tables[i].alias;
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit) out += util::StringPrintf(" LIMIT %lld", (long long)*limit);
  return out;
}

util::Result<SelectStatement> ParseTokens(const std::vector<Token>& tokens) {
  return Parser(tokens).Parse();
}

util::Result<SelectStatement> ParseQuery(const std::string& text) {
  DRUGTREE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  if (stmt.explain != ExplainMode::kNone) {
    return util::Status::ParseError("query position 0: expected SELECT");
  }
  return std::move(stmt.select);
}

util::Result<Statement> ParseStatement(const std::string& text) {
  DRUGTREE_ASSIGN_OR_RETURN(LexedStatement lexed, Lex(text));
  Statement stmt;
  stmt.explain = lexed.explain;
  DRUGTREE_ASSIGN_OR_RETURN(stmt.select, ParseTokens(lexed.tokens));
  return stmt;
}

}  // namespace query
}  // namespace drugtree
