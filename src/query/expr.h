// Expression trees: the scalar language shared by the parser, the logical
// plan, the optimizer rules, and the physical operators.
//
// Evaluation uses SQL three-valued logic for comparisons and AND/OR/NOT
// (NULL-in propagates as documented per operator). Tree predicates
// (SUBTREE, ANCESTOR_OF) and tree scalars (TREE_DEPTH) evaluate against the
// phylogeny supplied in EvalContext; the optimizer rewrites the predicates
// into interval comparisons whenever the catalog metadata allows, so the
// executor only falls back to per-row tree walks in the unoptimized plans.

#ifndef DRUGTREE_QUERY_EXPR_H_
#define DRUGTREE_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "phylo/tree.h"
#include "phylo/tree_index.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace query {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnary,
  kFunction,
};

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
};

enum class UnaryOp { kNot, kNeg };

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// One expression node. A small tagged struct (rather than a class
/// hierarchy) keeps cloning and pattern matching in the rewriter simple.
struct Expr {
  ExprKind kind;

  // kLiteral
  storage::Value literal;
  /// Positional parameter ordinal assigned by NormalizeStatement (-1 =
  /// untagged). Clone preserves it; literals synthesized by the optimizer
  /// (constant folding, tree-predicate rewriting) are untagged, which is how
  /// the plan cache detects that a literal was consumed at plan time and the
  /// template cannot be re-bound to new parameter values.
  int param_index = -1;

  // kColumnRef: "alias.column" or bare "column" as written; `bound_index`
  // is filled by binding against an execution schema (-1 = unbound).
  std::string column;
  int bound_index = -1;

  // kBinary / kUnary
  BinaryOp bin_op = BinaryOp::kEq;
  UnaryOp un_op = UnaryOp::kNot;

  // kFunction: upper-cased name + args. Aggregates (COUNT/SUM/...) also use
  // this node kind but are handled by the aggregation operator, never by
  // scalar evaluation. COUNT(*) is represented with zero args.
  std::string function;

  std::vector<ExprPtr> children;

  static ExprPtr Literal(storage::Value v);
  static ExprPtr Column(std::string name);
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);

  /// Deep copy.
  ExprPtr Clone() const;

  /// Display form, parenthesized.
  std::string ToString() const;

  /// True iff this is an aggregate function call (COUNT/SUM/AVG/MIN/MAX) at
  /// the top level.
  bool IsAggregate() const;

  /// True iff any node in the tree is an aggregate call.
  bool ContainsAggregate() const;

  /// Collects the distinct column names referenced anywhere below.
  void CollectColumns(std::vector<std::string>* out) const;
};

/// Phylogeny context available during evaluation (may be absent for purely
/// relational queries).
struct EvalContext {
  const phylo::Tree* tree = nullptr;
  const phylo::TreeIndex* tree_index = nullptr;
};

/// Resolves a column name against a schema of qualified names
/// ("alias.column"). A bare name matches any qualified name with that suffix
/// if the match is unique; exact matches win. Errors on ambiguity or miss.
util::Result<size_t> ResolveColumn(const storage::Schema& schema,
                                   const std::string& name);

/// Binds all column refs in `expr` to indexes of `schema` (in place).
util::Status BindExpr(Expr* expr, const storage::Schema& schema);

/// Evaluates a bound expression against a row. Comparisons involving NULL
/// yield NULL; AND/OR use Kleene logic; arithmetic with NULL yields NULL.
util::Result<storage::Value> EvalExpr(const Expr& expr, const storage::Row& row,
                                      const EvalContext& ctx);

/// Evaluates a predicate: NULL counts as false.
util::Result<bool> EvalPredicate(const Expr& expr, const storage::Row& row,
                                 const EvalContext& ctx);

/// Splits a predicate into its top-level AND conjuncts (clones).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Rebuilds a conjunction from conjuncts (nullptr for the empty list).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_EXPR_H_
