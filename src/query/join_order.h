// Cost-based join-order enumeration.
//
// Input: the query's base relations (with post-pushdown cardinality
// estimates) and the binary join predicates between them. Output: a
// left-deep join order minimizing the estimated sum of intermediate result
// sizes. Exact dynamic programming over connected subsets up to
// kDpTableLimit relations, greedy (smallest-intermediate-first) beyond that.

#ifndef DRUGTREE_QUERY_JOIN_ORDER_H_
#define DRUGTREE_QUERY_JOIN_ORDER_H_

#include <string>
#include <vector>

#include "query/cost_model.h"
#include "query/expr.h"
#include "util/result.h"

namespace drugtree {
namespace query {

/// One base relation entering join ordering.
struct JoinRelation {
  std::string alias;
  double estimated_rows = 1.0;
};

/// A binary predicate connecting two relations (by index into the relation
/// list). `selectivity` was estimated by the cost model.
struct JoinEdge {
  size_t left_rel;
  size_t right_rel;
  ExprPtr condition;
  double selectivity = 0.01;
};

/// The chosen order: relation indices, left-deep; step i joins order[i] into
/// the accumulated left side. conditions[i-1] holds the predicates applied
/// at step i (possibly empty = cross product), and rows[i] the estimated
/// rows of the accumulated side after step i (rows[0]: the first relation),
/// so step i joins rows[i-1] outer rows into rows[i] output rows.
struct JoinOrderResult {
  std::vector<size_t> order;
  std::vector<std::vector<ExprPtr>> conditions;
  std::vector<double> rows;
  double estimated_cost = 0.0;
};

inline constexpr size_t kDpTableLimit = 12;

/// Chooses a join order. With `enable_reordering` false, keeps the textual
/// order (still attaching conditions at the right steps) — the E2 baseline.
/// Each join step is priced per intermediate row: a connected step pays
/// CostModel::kHashProbeRowCost, a cross product
/// CostModel::kCrossProductPenalty.
util::Result<JoinOrderResult> ChooseJoinOrder(
    const std::vector<JoinRelation>& relations,
    const std::vector<JoinEdge>& edges, bool enable_reordering);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_JOIN_ORDER_H_
