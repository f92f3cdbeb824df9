// Logical query plans and the AST -> plan builder.

#ifndef DRUGTREE_QUERY_LOGICAL_PLAN_H_
#define DRUGTREE_QUERY_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "query/catalog.h"
#include "query/expr.h"
#include "query/parser.h"
#include "storage/schema.h"
#include "util/result.h"

namespace drugtree {
namespace query {

enum class LogicalKind { kScan, kFilter, kProject, kJoin, kAggregate, kSort,
                         kLimit, kDistinct };

/// How a join is executed. The optimizer records the cheaper method per join
/// step (CostModel::PriceJoin); physical planning lowers it.
enum class JoinMethod {
  kHash,             // hash join (nested loops when it has no equi-keys)
  kIndexNestedLoop,  // probe the inner base table's hash index per outer row
};

struct LogicalNode;
using LogicalPtr = std::shared_ptr<LogicalNode>;

/// Output column of a Project / Aggregate.
struct OutputColumn {
  ExprPtr expr;
  std::string name;
};

/// One logical operator. Like Expr, a tagged struct for easy rewriting.
/// `schema` (qualified column names, "alias.column") is maintained by
/// ComputeSchema after every structural change.
struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalPtr> children;
  storage::Schema schema;

  // kScan
  std::string table;
  std::string alias;
  ExprPtr scan_predicate;  // pushed-down conjunction, may be null

  // kFilter
  ExprPtr predicate;

  // kProject / kAggregate output
  std::vector<OutputColumn> outputs;

  // kJoin
  ExprPtr join_condition;  // may be null (cross product)
  JoinMethod join_method = JoinMethod::kHash;
  /// kIndexNestedLoop: the right (inner) scan's column whose hash index is
  /// probed, unqualified.
  std::string index_column;

  // kAggregate
  std::vector<ExprPtr> group_by;

  // kSort
  std::vector<OrderKey> order_by;

  // kLimit
  int64_t limit = 0;

  static LogicalPtr Scan(std::string table, std::string alias);
  static LogicalPtr Filter(LogicalPtr child, ExprPtr predicate);
  static LogicalPtr Project(LogicalPtr child, std::vector<OutputColumn> outputs);
  static LogicalPtr Join(LogicalPtr left, LogicalPtr right, ExprPtr condition);
  static LogicalPtr Aggregate(LogicalPtr child, std::vector<ExprPtr> group_by,
                              std::vector<OutputColumn> aggregates);
  static LogicalPtr Sort(LogicalPtr child, std::vector<OrderKey> keys);
  static LogicalPtr Limit(LogicalPtr child, int64_t n);
  static LogicalPtr Distinct(LogicalPtr child);

  /// Indented multi-line plan rendering (EXPLAIN output).
  std::string ToString(int indent = 0) const;
};

/// Deep copy of a plan: every node and every expression is cloned (schemas
/// are value-copied), so the result can be rewritten — e.g. re-bound to new
/// parameter values by the plan cache — without touching the original.
LogicalPtr CloneLogicalPlan(const LogicalPtr& plan);

/// Recomputes the node's (and descendants') output schemas against the
/// catalog. Must be called after structural rewrites.
util::Status ComputeSchema(LogicalNode* node, const Catalog& catalog);

/// Builds the canonical logical plan for a parsed statement:
///   Limit(Sort(Project(Aggregate?(Filter(CrossJoin(Scans...))))))
/// No optimization is applied here.
util::Result<LogicalPtr> BuildLogicalPlan(const SelectStatement& stmt,
                                          const Catalog& catalog);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_LOGICAL_PLAN_H_
