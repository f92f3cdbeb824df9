#include "query/normalize.h"

#include <utility>

#include "query/lexer.h"

namespace drugtree {
namespace query {

namespace {

/// True iff `tok` is where the rendering of a literal expression node
/// lies: a literal token, or TRUE, FALSE or NULL.
bool RendersLiteral(const Token& tok) {
  switch (tok.kind) {
    case TokenKind::kInteger:
    case TokenKind::kFloat:
    case TokenKind::kString:
      return true;
    case TokenKind::kKeyword:
      return tok.text == "TRUE" || tok.text == "FALSE" || tok.text == "NULL";
    default:
      return false;
  }
}

/// Pairs the literal nodes below `expr` (preorder: the ToString order)
/// with the literal tokens of its rendering, from `*next` on, and tags each
/// with its token's ordinal.
void TagLiterals(Expr* expr, const std::vector<Token>& tokens, size_t* next,
                 std::vector<storage::Value>* params) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kLiteral) {
    while (*next < tokens.size() && !RendersLiteral(tokens[*next])) ++*next;
    expr->param_index = *next < tokens.size() ? tokens[(*next)++].param : -1;
    if (expr->param_index >= 0) {
      const auto ordinal = static_cast<size_t>(expr->param_index);
      if (ordinal >= params->size()) params->resize(ordinal + 1);
      (*params)[ordinal] = expr->literal;
    }
    return;
  }
  for (auto& c : expr->children) TagLiterals(c.get(), tokens, next, params);
}

}  // namespace

NormalizedStatement NormalizeStatement(SelectStatement* stmt,
                                       bool want_canonical) {
  NormalizedStatement out;
  // The tokens view the rendering: it stays here, unmoved, until the last
  // token is read.
  std::string text = stmt->ToString();
  // A parsed statement's rendering lexes; should it not, every literal
  // stays untagged and the fingerprint empty.
  util::Result<LexedStatement> lexed = Lex(text);
  const std::vector<Token> none;
  const std::vector<Token>& tokens = lexed.ok() ? lexed->tokens : none;
  size_t next = 0;
  for (auto& item : stmt->select) {
    if (!item.star) TagLiterals(item.expr.get(), tokens, &next, &out.params);
  }
  TagLiterals(stmt->where.get(), tokens, &next, &out.params);
  for (auto& g : stmt->group_by) {
    TagLiterals(g.get(), tokens, &next, &out.params);
  }
  for (auto& k : stmt->order_by) {
    TagLiterals(k.expr.get(), tokens, &next, &out.params);
  }
  if (lexed.ok()) out.fingerprint = std::move(lexed->fingerprint);
  if (want_canonical) out.canonical = std::move(text);
  return out;
}

}  // namespace query
}  // namespace drugtree
