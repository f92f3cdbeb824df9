// Logical query plans and the AST -> plan builder.

#ifndef DRUGTREE_QUERY_LOGICAL_PLAN_H_
#define DRUGTREE_QUERY_LOGICAL_PLAN_H_

#include <functional>
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
/// `schema` (qualified column names, "alias.column") is set once, when the
/// node is built: for scans, the ScanSchema columns listed in `columns`;
/// ComputeSchema for the others.
///
/// Copy rule: a built plan is immutable. Its expressions may be shared with
/// the parsed statement's copy, with other plans (the optimizer's output
/// shares every expression it did not rewrite) and with plan-cache
/// templates, and a tree may share subtrees. Physical planning is the one
/// place that copies them, because binding writes Expr::bound_index; a
/// prepared plan assigns each statement's literals to those copies
/// (planner.h).
struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalPtr> children;
  storage::Schema schema;

  // kScan
  std::string table;
  std::string alias;
  ExprPtr scan_predicate;  // pushed-down conjunction, may be null
  /// The table's full ScanSchema. The pushed-down predicate binds to it,
  /// because it runs on whole table rows. Shared, never modified.
  std::shared_ptr<const storage::Schema> full_schema;
  /// The table columns the scan emits, in table order; `schema` names
  /// them. BuildLogicalPlan lists every column, and projection pruning
  /// (rules.h) drops the ones nothing above the scan reads.
  std::vector<size_t> columns;

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

  /// Indented multi-line plan rendering (EXPLAIN output). With `bindings`,
  /// literals render as bound to them.
  std::string ToString(int indent = 0,
                       const ParamBindings* bindings = nullptr) const;
};

/// Calls `fn` on each expression root of every node of `plan`: scan
/// predicates, filters, join conditions, outputs, group and sort keys.
void ForEachExpr(const LogicalNode& plan,
                 const std::function<void(const Expr&)>& fn);

/// The output schema of scanning `table` under `alias`: the table's
/// columns in table order, named "alias.column".
util::Result<storage::Schema> ScanSchema(const storage::Table& table,
                                         const std::string& alias);

/// The " [columns: a.x, a.y]" part of a pruned scan's EXPLAIN line: the
/// names of the `columns` listed out of `full`, in order. Empty when the
/// list holds every column, so unpruned lines read as before pruning.
std::string ColumnListLabel(const storage::Schema& full,
                            const std::vector<size_t>& columns);

/// Sets the output schema of a non-scan node from its children's schemas,
/// which must already be set. Nothing below the node is recomputed.
util::Status ComputeSchema(LogicalNode* node);

/// Builds the canonical logical plan for a parsed statement:
///   Limit(Sort(Project(Aggregate?(Filter(CrossJoin(Scans...))))))
/// No optimization is applied here.
util::Result<LogicalPtr> BuildLogicalPlan(const SelectStatement& stmt,
                                          const Catalog& catalog);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_LOGICAL_PLAN_H_
