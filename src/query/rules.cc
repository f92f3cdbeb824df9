#include "query/rules.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "obs/trace.h"
#include "query/cost_model.h"
#include "query/join_order.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Value;
using storage::ValueType;

namespace {

bool IsPureLiteralTree(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return false;
  if (e.kind == ExprKind::kFunction && e.IsAggregate()) return false;
  for (const auto& c : e.children) {
    if (!IsPureLiteralTree(*c)) return false;
  }
  return true;
}

/// The alias qualifying a column name ("p.family" -> "p"); "" for a bare
/// name.
std::string_view AliasOf(const std::string& column) {
  size_t dot = column.find('.');
  return dot == std::string::npos ? std::string_view()
                                  : std::string_view(column).substr(0, dot);
}

/// Distinct aliases referenced by an expression, as views into its column
/// names. Bare column names are reported under "" (treated as multi-alias,
/// i.e. not pushable).
void CollectAliases(const Expr& e, std::vector<std::string_view>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    std::string_view alias = AliasOf(e.column);
    if (std::find(out->begin(), out->end(), alias) == out->end()) {
      out->push_back(alias);
    }
  }
  for (const auto& c : e.children) CollectAliases(*c, out);
}

}  // namespace

ExprPtr FoldConstants(const ExprPtr& expr, const Catalog& catalog) {
  if (!expr || expr->kind == ExprKind::kLiteral ||
      expr->kind == ExprKind::kColumnRef) {
    return expr;
  }
  // Copy-on-write: the node is copied only when a child folded.
  ExprPtr folded = expr;
  for (size_t i = 0; i < expr->children.size(); ++i) {
    ExprPtr c = FoldConstants(expr->children[i], catalog);
    if (c == expr->children[i]) continue;
    if (folded == expr) folded = std::make_shared<Expr>(*expr);
    folded->children[i] = std::move(c);
  }
  if (!IsPureLiteralTree(*folded)) return folded;
  EvalContext ctx{catalog.tree(), catalog.tree_index()};
  storage::Row empty;
  auto value = EvalExpr(*folded, empty, ctx);
  if (!value.ok()) return folded;  // e.g. unknown node name: leave to runtime
  return Expr::Literal(std::move(value).ValueUnsafe());
}

util::Result<TreeInterval> ResolveTreeInterval(const Catalog& catalog,
                                               const Value& node) {
  const phylo::Tree* tree = catalog.tree();
  phylo::NodeId id = phylo::kInvalidNode;
  if (tree != nullptr && catalog.tree_index() != nullptr) {
    if (node.type() == ValueType::kString) {
      id = tree->FindByName(node.AsString());
    } else if (node.type() == ValueType::kInt64 &&
               tree->Contains(static_cast<phylo::NodeId>(node.AsInt64()))) {
      id = static_cast<phylo::NodeId>(node.AsInt64());
    }
  }
  if (id == phylo::kInvalidNode) {
    return util::Status::NotFound("tree node not found: " + node.ToString());
  }
  return TreeInterval{catalog.tree_index()->Pre(id),
                      catalog.tree_index()->Post(id)};
}

util::Result<ExprPtr> RewriteTreePredicates(
    const ExprPtr& expr, const Catalog& catalog,
    const std::map<std::string, std::string>& alias_to_table) {
  if (!expr) return expr;
  // Copy-on-write: the node is copied only when a child was rewritten.
  ExprPtr out = expr;
  for (size_t i = 0; i < expr->children.size(); ++i) {
    DRUGTREE_ASSIGN_OR_RETURN(
        ExprPtr c,
        RewriteTreePredicates(expr->children[i], catalog, alias_to_table));
    if (c == expr->children[i]) continue;
    if (out == expr) out = std::make_shared<Expr>(*expr);
    out->children[i] = std::move(c);
  }
  if (out->kind != ExprKind::kFunction ||
      (out->function != "SUBTREE" && out->function != "ANCESTOR_OF")) {
    return out;
  }
  if (out->children.size() != 2) {
    return util::Status::InvalidArgument(out->function +
                                         " takes (node_column, node)");
  }
  const Expr& col = *out->children[0];
  const Expr& node_arg = *out->children[1];
  if (col.kind != ExprKind::kColumnRef ||
      node_arg.kind != ExprKind::kLiteral) {
    return out;  // dynamic form: leave for runtime evaluation
  }
  if (catalog.tree() == nullptr || catalog.tree_index() == nullptr) return out;

  size_t dot = col.column.find('.');
  if (dot == std::string::npos) return out;
  std::string alias = col.column.substr(0, dot);
  auto it = alias_to_table.find(alias);
  if (it == alias_to_table.end()) return out;
  const TreeBinding* binding = catalog.GetTreeBinding(it->second);
  if (binding == nullptr ||
      std::string_view(col.column).substr(dot + 1) != binding->node_col) {
    return out;
  }

  DRUGTREE_ASSIGN_OR_RETURN(TreeInterval node,
                            ResolveTreeInterval(catalog, node_arg.literal));
  // A bound stands for the node literal: re-binding re-resolves it.
  auto bound = [&node_arg](ParamRole role, int64_t value) {
    ExprPtr literal = Expr::Literal(Value::Int64(value));
    if (node_arg.param_index >= 0) {
      literal->param_index = node_arg.param_index;
      literal->param_role = role;
    }
    return literal;
  };
  ExprPtr pre_col = Expr::Column(alias + "." + binding->pre_col);
  if (out->function == "SUBTREE") {
    // pre(node) <= row.pre <= post(node).
    return Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kGe, pre_col, bound(ParamRole::kPre, node.pre)),
        Expr::Binary(BinaryOp::kLe, pre_col,
                     bound(ParamRole::kPost, node.post)));
  }
  // ANCESTOR_OF needs the row's post column.
  if (binding->post_col.empty()) return out;
  ExprPtr post_col = Expr::Column(alias + "." + binding->post_col);
  return Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLe, pre_col, bound(ParamRole::kPre, node.pre)),
      Expr::Binary(BinaryOp::kGe, post_col,
                   bound(ParamRole::kPre, node.pre)));
}

namespace {

struct JoinRegion {
  std::vector<LogicalPtr> scans;           // kScan leaves, textual order
  std::vector<ExprPtr> conjuncts;          // all predicates in the region
};

// Collects the scans and predicates of a Filter/Join/Scan region. The scans
// are new nodes without predicates or schemas; they take over the original
// scans' column lists.
util::Status CollectRegion(const LogicalPtr& node, JoinRegion* region) {
  switch (node->kind) {
    case LogicalKind::kScan: {
      auto scan = LogicalNode::Scan(node->table, node->alias);
      scan->full_schema = node->full_schema;
      scan->columns = node->columns;
      if (node->scan_predicate) {
        for (auto& c : SplitConjuncts(node->scan_predicate)) {
          region->conjuncts.push_back(std::move(c));
        }
      }
      region->scans.push_back(std::move(scan));
      return util::Status::OK();
    }
    case LogicalKind::kFilter: {
      for (auto& c : SplitConjuncts(node->predicate)) {
        region->conjuncts.push_back(std::move(c));
      }
      return CollectRegion(node->children[0], region);
    }
    case LogicalKind::kJoin: {
      if (node->join_condition) {
        for (auto& c : SplitConjuncts(node->join_condition)) {
          region->conjuncts.push_back(std::move(c));
        }
      }
      DRUGTREE_RETURN_IF_ERROR(CollectRegion(node->children[0], region));
      return CollectRegion(node->children[1], region);
    }
    default:
      return util::Status::Internal("unexpected node kind in join region");
  }
}

/// Distinct column names referenced by an expression, as views into it.
void CollectColumnNames(const Expr& e, std::vector<std::string_view>* out) {
  if (e.kind == ExprKind::kColumnRef &&
      std::find(out->begin(), out->end(), e.column) == out->end()) {
    out->push_back(e.column);
  }
  for (const auto& c : e.children) CollectColumnNames(*c, out);
}

/// Collects the columns the pipeline reads from the join region's rows:
/// those of the Project or Aggregate that BuildLogicalPlan puts directly
/// above the region. False for any other node: it sees whole rows.
bool CollectPipelineReads(const std::vector<const LogicalNode*>& pipeline,
                          std::vector<std::string_view>* out) {
  if (pipeline.empty()) return false;
  const LogicalNode& node = *pipeline.back();
  if (node.kind != LogicalKind::kProject &&
      node.kind != LogicalKind::kAggregate) {
    return false;
  }
  for (const auto& g : node.group_by) CollectColumnNames(*g, out);
  for (const auto& o : node.outputs) CollectColumnNames(*o.expr, out);
  return true;
}

/// True iff the column reference `ref` may resolve to the scan column
/// `qualified` ("alias.column"): ResolveColumn's exact or bare-suffix
/// match. Keeping every such column keeps resolution, ambiguity errors
/// included, as it is over unpruned rows.
bool MayResolveTo(std::string_view ref, std::string_view qualified) {
  return qualified == ref ||
         (qualified.size() > ref.size() && qualified.ends_with(ref) &&
          qualified[qualified.size() - ref.size() - 1] == '.');
}

bool IsJoinRegionNode(const LogicalNode& node) {
  return node.kind == LogicalKind::kScan || node.kind == LogicalKind::kFilter ||
         node.kind == LogicalKind::kJoin;
}

// True for a conjunct of the shape colA = colB across two different
// (qualified) aliases.
bool IsEquiJoinCondition(const Expr& e) {
  if (e.kind != ExprKind::kBinary || e.bin_op != BinaryOp::kEq) return false;
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind != ExprKind::kColumnRef || r.kind != ExprKind::kColumnRef) {
    return false;
  }
  std::string_view la = AliasOf(l.column);
  std::string_view ra = AliasOf(r.column);
  return !la.empty() && !ra.empty() && la != ra;
}

}  // namespace

util::Result<LogicalPtr> OptimizeLogicalPlan(const LogicalPtr& plan,
                                             const Catalog& catalog,
                                             const OptimizerOptions& options) {
  // Peel the pipeline above the join region. Those nodes are copied when
  // the plan is reassembled; their schemas do not depend on the join order.
  std::vector<const LogicalNode*> pipeline;  // from root downwards
  LogicalPtr cursor = plan;
  while (cursor && !IsJoinRegionNode(*cursor)) {
    pipeline.push_back(cursor.get());
    if (cursor->children.size() != 1) {
      return util::Status::Internal("pipeline node with != 1 child");
    }
    cursor = cursor->children[0];
  }
  if (!cursor) return util::Status::Internal("plan has no join region");

  JoinRegion region;
  DRUGTREE_RETURN_IF_ERROR(CollectRegion(cursor, &region));

  std::map<std::string, std::string> alias_to_table;
  for (const auto& s : region.scans) alias_to_table[s->alias] = s->table;

  // Per-conjunct rewrites.
  std::vector<ExprPtr> conjuncts;
  {
    DT_SPAN("query.rewrite");
    for (auto& c : region.conjuncts) {
      ExprPtr e = c;
      if (options.enable_tree_rewrite) {
        DRUGTREE_ASSIGN_OR_RETURN(e,
                                  RewriteTreePredicates(e, catalog,
                                                        alias_to_table));
      }
      if (options.enable_constant_folding) e = FoldConstants(e, catalog);
      // Re-split: rewrites may introduce fresh conjunctions.
      for (auto& piece : SplitConjuncts(e)) {
        // Drop literal TRUE.
        if (piece->kind == ExprKind::kLiteral &&
            piece->literal.type() == ValueType::kBool &&
            piece->literal.AsBool()) {
          continue;
        }
        conjuncts.push_back(std::move(piece));
      }
    }
  }

  // Classify conjuncts by the region scans they reference (by position);
  // one referencing an alias outside the region stays residual, where
  // binding reports it.
  const size_t n = region.scans.size();
  auto scan_index = [&region](std::string_view alias) {
    size_t i = 0;
    while (i < region.scans.size() && region.scans[i]->alias != alias) ++i;
    return i;
  };
  std::vector<std::vector<ExprPtr>> scan_preds(n);
  std::vector<ExprPtr> residual;
  std::vector<JoinEdge> edges;
  CostModel cost(&catalog, alias_to_table);
  std::vector<std::string_view> aliases;
  for (auto& c : conjuncts) {
    aliases.clear();
    CollectAliases(*c, &aliases);
    if (aliases.size() == 1 && !aliases[0].empty() &&
        options.enable_pushdown && scan_index(aliases[0]) < n) {
      scan_preds[scan_index(aliases[0])].push_back(std::move(c));
    } else if (aliases.size() == 2 && IsEquiJoinCondition(*c) &&
               scan_index(aliases[0]) < n && scan_index(aliases[1]) < n) {
      JoinEdge e;
      e.left_rel = scan_index(AliasOf(c->children[0]->column));
      e.right_rel = scan_index(AliasOf(c->children[1]->column));
      e.selectivity = cost.JoinSelectivity(c->children[0]->column,
                                           c->children[1]->column);
      e.condition = std::move(c);
      edges.push_back(std::move(e));
    } else {
      residual.push_back(std::move(c));
    }
  }

  // Attach scan predicates and estimate cardinalities. The estimates only
  // steer join order and join methods, so a lone scan skips them (an exact
  // clade count walks the clade's index entries).
  std::vector<JoinRelation> relations;
  relations.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LogicalNode& s = *region.scans[i];
    s.scan_predicate = CombineConjuncts(scan_preds[i]);
    relations.push_back(
        {s.alias, n > 1 ? cost.EstimateScanRows(s.alias, s.scan_predicate)
                        : 1.0});
  }

  DRUGTREE_ASSIGN_OR_RETURN(JoinOrderResult order, [&] {
    DT_SPAN("query.join_order");
    return ChooseJoinOrder(relations, edges, options.enable_join_reorder);
  }());

  // Projection pruning: each scan keeps only the columns read above it, by
  // the pipeline, the residual filter or a join condition. Join keys stay,
  // so joins concatenate and bind as they do over whole rows; pushed-down
  // predicates bind to the full table row and are not counted. Each scan's
  // schema is built once, here, from its list.
  std::vector<std::string_view> reads;
  if (options.enable_projection_pruning &&
      CollectPipelineReads(pipeline, &reads)) {
    for (const auto& r : residual) CollectColumnNames(*r, &reads);
    for (const auto& step : order.conditions) {
      for (const auto& c : step) CollectColumnNames(*c, &reads);
    }
    for (const auto& scan : region.scans) {
      const storage::Schema& full = *scan->full_schema;
      std::erase_if(scan->columns, [&](size_t c) {
        return std::none_of(reads.begin(), reads.end(),
                            [&](std::string_view ref) {
                              return MayResolveTo(ref, full.column(c).name);
                            });
      });
    }
  }
  for (const auto& scan : region.scans) {
    scan->schema = scan->full_schema->Select(scan->columns);
  }

  // Rebuild the join tree left-deep in the chosen order. Each step records
  // the join method the cost model prices cheaper at the step's estimated
  // outer and output rows.
  LogicalPtr rebuilt = region.scans[order.order[0]];
  std::vector<std::string> inner_keys;
  for (size_t step = 1; step < order.order.size(); ++step) {
    const std::vector<ExprPtr>& conditions = order.conditions[step - 1];
    const size_t inner_rel = order.order[step];
    const LogicalPtr& inner = region.scans[inner_rel];
    rebuilt = LogicalNode::Join(rebuilt, inner, CombineConjuncts(conditions));
    DRUGTREE_RETURN_IF_ERROR(ComputeSchema(rebuilt.get()));
    // Every step condition is an equi-edge `colA = colB`; collect its inner
    // side.
    inner_keys.clear();
    for (const auto& c : conditions) {
      for (const auto& side : c->children) {
        if (AliasOf(side->column) == inner->alias) {
          inner_keys.push_back(side->column);
        }
      }
    }
    CostModel::JoinPricing price = cost.PriceJoin(
        order.rows[step - 1], order.rows[step], inner->alias,
        inner->scan_predicate, relations[inner_rel].estimated_rows,
        inner_keys);
    if (price.index_nested_loop < price.hash) {
      rebuilt->join_method = JoinMethod::kIndexNestedLoop;
      rebuilt->index_column = price.index_column;
    }
  }
  if (!residual.empty()) {
    rebuilt = LogicalNode::Filter(rebuilt, CombineConjuncts(residual));
    DRUGTREE_RETURN_IF_ERROR(ComputeSchema(rebuilt.get()));
  }

  // Reattach the pipeline.
  for (auto it = pipeline.rbegin(); it != pipeline.rend(); ++it) {
    auto copy = std::make_shared<LogicalNode>(**it);
    copy->children = {std::move(rebuilt)};
    rebuilt = std::move(copy);
  }
  return rebuilt;
}

namespace {

void CollectScans(const LogicalNode& node,
                  std::vector<const LogicalNode*>* out) {
  if (node.kind == LogicalKind::kScan) out->push_back(&node);
  for (const auto& c : node.children) CollectScans(*c, out);
}

}  // namespace

util::Result<ParamBindings> BindParams(std::span<const int> node_ordinals,
                                       std::span<const Value> params,
                                       const Catalog& catalog) {
  ParamBindings bindings;
  bindings.values = params;
  for (int ordinal : node_ordinals) {
    if (static_cast<size_t>(ordinal) >= params.size()) {
      return util::Status::InvalidArgument("plan parameter out of range");
    }
    DRUGTREE_ASSIGN_OR_RETURN(
        TreeInterval node,
        ResolveTreeInterval(catalog, params[static_cast<size_t>(ordinal)]));
    bindings.intervals.push_back({ordinal, node.pre, node.post});
  }
  return bindings;
}

namespace {

/// `plan`'s scans, sorted by alias.
std::vector<const LogicalNode*> ScansByAlias(const LogicalNode& plan) {
  std::vector<const LogicalNode*> scans;
  CollectScans(plan, &scans);
  std::sort(scans.begin(), scans.end(),
            [](const LogicalNode* a, const LogicalNode* b) {
              return a->alias < b->alias;
            });
  return scans;
}

std::map<std::string, std::string> AliasTables(const LogicalNode& plan) {
  std::map<std::string, std::string> alias_to_table;
  for (const LogicalNode* s : ScansByAlias(plan)) {
    alias_to_table[s->alias] = s->table;
  }
  return alias_to_table;
}

}  // namespace

ScanClassifier::ScanClassifier(const LogicalNode& plan, const Catalog& catalog)
    : cost_(&catalog, AliasTables(plan)) {
  for (const LogicalNode* s : ScansByAlias(plan)) {
    scans_.push_back({s->alias, SplitConjuncts(s->scan_predicate)});
  }
}

std::vector<int> ScanClassifier::Classify(
    const ParamBindings& bindings) const {
  std::vector<int> classes;
  classes.reserve(scans_.size());
  for (const Scan& s : scans_) {
    classes.push_back(static_cast<int>(std::ceil(std::log2(
        cost_.EstimateScanRows(s.alias, s.conjuncts, &bindings)))));
  }
  return classes;
}

}  // namespace query
}  // namespace drugtree
