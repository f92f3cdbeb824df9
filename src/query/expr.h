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

#include <cstdint>
#include <memory>
#include <span>
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

/// What a tagged literal (Expr::param_index >= 0) stands for.
enum class ParamRole : uint8_t {
  kValue,  // the statement's literal itself
  kPre,    // the pre-order number of the tree node the literal names
  kPost,   // that node's post-order number
};

/// The values one statement binds into a plan made for other literals:
/// its literals by ordinal, and the pre-order interval of each literal
/// that a rewritten tree predicate reads as a node (BindParams, rules.h).
struct ParamBindings {
  std::span<const storage::Value> values;  // borrowed
  struct Interval {
    int ordinal;
    int64_t pre, post;
  };
  std::vector<Interval> intervals;

  /// The value `literal` (tagged) takes under these bindings: the
  /// statement's literal, or a tree node's bound written to `*scratch`.
  const storage::Value& ValueFor(const Expr& literal,
                                 storage::Value* scratch) const;
};

/// `literal`'s value under `bindings`: its own when they are null or it is
/// untagged.
const storage::Value& BoundValue(const Expr& literal,
                                 const ParamBindings* bindings,
                                 storage::Value* scratch);

/// A tagged literal copied out of a shared plan: the copy, and the value
/// it had in the plan. A physical plan kept for re-runs records one per
/// tagged literal of its operators' expressions, and re-binds by assigning
/// each copy its value under the next statement's bindings.
struct LiteralSlot {
  Expr* copy;
  storage::Value own;
};

/// One expression node. A small tagged struct (rather than a class
/// hierarchy) keeps cloning and pattern matching in the rewriter simple.
/// Nodes in a logical plan are shared and must not be modified; binding
/// works on a Clone() (see LogicalNode's copy rule).
struct Expr {
  ExprKind kind;

  // kLiteral
  storage::Value literal;
  /// Positional parameter ordinal assigned by NormalizeStatement (-1 =
  /// untagged). Clone preserves it. The tree-predicate rewrite tags the
  /// interval bounds it synthesizes with the node literal's ordinal and the
  /// bound's role; constant folding leaves its results untagged, which is
  /// how the plan cache detects that a literal was consumed at plan time
  /// and the template cannot be re-bound to new parameter values.
  int param_index = -1;
  ParamRole param_role = ParamRole::kValue;

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

  /// Deep copy. With `bindings`, every tagged literal takes its value
  /// under them (EXPLAIN renders a re-bound template this way). With
  /// `slots`, each tagged literal's copy is recorded there (a prepared
  /// plan re-binds through them).
  ExprPtr Clone(const ParamBindings* bindings = nullptr,
                std::vector<LiteralSlot>* slots = nullptr) const;

  /// Display form, parenthesized.
  std::string ToString() const;

  /// True iff `other` is the same tree: node by node the same kind,
  /// operator, column name and function name, and literals of the same
  /// type and value. Unlike comparing ToString() renderings, doubles that
  /// print alike (%g keeps 6 digits) stay apart.
  bool SameTree(const Expr& other) const;

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

/// A comparison of a column with a literal, read column first: `5 > c`
/// reads as `c < 5`.
struct ColumnComparison {
  const Expr* column = nullptr;  // kColumnRef
  BinaryOp op = BinaryOp::kEq;   // one of = < <= > >=
  const Expr* literal = nullptr;  // kLiteral
};

/// Matches `column op literal`, in either operand order, for op one of
/// = < <= > >=.
bool MatchColumnComparison(const Expr& e, ColumnComparison* out);

/// The values of one column that a conjunction of range comparisons
/// (`column op v`, op one of < <= > >=) admits. Index scans read their
/// bounds through it and the cost model estimates with it, so both fold
/// the same conjuncts into the same range.
struct ValueRange {
  storage::Value lo, hi;  // NULL = unbounded
  bool lo_inclusive = true, hi_inclusive = true;

  /// Narrows the range by `column op v`, v not NULL: the tighter bound on
  /// op's side wins, and of two equal bounds the exclusive one (x >= 3 AND
  /// x > 3 admits no 3).
  void Narrow(BinaryOp op, const storage::Value& v);
};

/// Splits a predicate into its top-level AND conjuncts. The conjuncts are
/// shared with `expr`, not copied.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Rebuilds a conjunction from conjuncts (nullptr for the empty list). The
/// new AND nodes share the conjuncts.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_EXPR_H_
