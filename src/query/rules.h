// The rule-based logical optimizer: constant folding, tree-predicate
// rewriting (SUBTREE/ANCESTOR_OF -> pre-order interval comparisons),
// predicate pushdown, cost-based join reordering, and projection pruning
// (each scan lists only the columns read above it). Each rule can be
// toggled independently — experiment E2's ablation axis.

#ifndef DRUGTREE_QUERY_RULES_H_
#define DRUGTREE_QUERY_RULES_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "query/catalog.h"
#include "query/cost_model.h"
#include "query/expr.h"
#include "query/logical_plan.h"
#include "util/result.h"

namespace drugtree {
namespace query {

struct OptimizerOptions {
  bool enable_constant_folding = true;
  bool enable_tree_rewrite = true;
  bool enable_pushdown = true;
  bool enable_join_reorder = true;
  /// Each scan emits only the columns that the pipeline above the join
  /// region, the residual filter or a join condition reads; off, every
  /// scan emits every column (the unpruned reference of Naive()).
  bool enable_projection_pruning = true;

  static OptimizerOptions AllOff() {
    return {false, false, false, false, false};
  }
  static OptimizerOptions AllOn() { return {}; }
};

/// Folds literal-only subexpressions into literals. Never fails: on any
/// evaluation error the original subtree is kept.
ExprPtr FoldConstants(const ExprPtr& expr, const Catalog& catalog);

/// The pre-order interval [pre, post] of the tree node that `node` names,
/// by id or by name. Tree-predicate rewriting and plan-cache re-binding
/// both resolve nodes here, so an unknown node is the same NotFound in
/// either.
struct TreeInterval {
  int64_t pre = 0;
  int64_t post = 0;
};
util::Result<TreeInterval> ResolveTreeInterval(const Catalog& catalog,
                                               const storage::Value& node);

/// Rewrites SUBTREE(col, lit) / ANCESTOR_OF(col, lit) calls into pre-order
/// interval comparisons wherever the referenced table has a TreeBinding and
/// the node argument resolves. Each interval bound is a literal tagged with
/// the node literal's ordinal and the bound it stands for (ParamRole), so a
/// cached plan re-binds to another node. `alias_to_table` maps query
/// aliases to catalog table names. Unrewritable calls are kept (the
/// executor can still evaluate them per row).
util::Result<ExprPtr> RewriteTreePredicates(
    const ExprPtr& expr, const Catalog& catalog,
    const std::map<std::string, std::string>& alias_to_table);

/// Runs the full logical optimization pipeline and returns the rewritten
/// plan. The join region is rebuilt, with its scans' column lists and
/// schemas (each built once); the nodes above it keep theirs. The input
/// plan is not modified.
util::Result<LogicalPtr> OptimizeLogicalPlan(const LogicalPtr& plan,
                                             const Catalog& catalog,
                                             const OptimizerOptions& options);

/// Binds `params`, a statement's literals by ordinal, for running a plan
/// optimized for other literals of the same statement shape:
/// `node_ordinals` are the ordinals of the literals that the plan's
/// rewritten tree predicates read as nodes (interval bounds tagged kPre or
/// kPost), once each, and each one's interval is resolved. The plan cache
/// records a template's node ordinals when it installs it. The bindings
/// borrow `params`.
util::Result<ParamBindings> BindParams(std::span<const int> node_ordinals,
                                       std::span<const storage::Value> params,
                                       const Catalog& catalog);

/// Classifies a multi-scan plan's statements: the cardinality class
/// ceil(log2 rows) of each scan, in alias order, under a statement's
/// bindings (BindParams). The rows are CostModel::EstimateScanRows over the
/// scan's bound pushed-down predicate (an exact count for a clade), which
/// is what join order and join methods are chosen from, so the plan cache
/// keeps one multi-scan plan per class vector. Built once per plan-cache
/// entry: it resolves the scans' tables and splits their predicates once,
/// and Classify() reads tagged literals through the bindings, so it builds
/// no alias map and copies no expression. It holds table pointers, valid
/// while the entry's version signature holds.
class ScanClassifier {
 public:
  ScanClassifier(const LogicalNode& plan, const Catalog& catalog);

  std::vector<int> Classify(const ParamBindings& bindings) const;

 private:
  struct Scan {
    std::string alias;
    std::vector<ExprPtr> conjuncts;  // shared with the plan
  };
  std::vector<Scan> scans_;  // alias order
  CostModel cost_;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_RULES_H_
