#include "query/rules.h"

#include <algorithm>
#include <set>

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

/// Aliases referenced by an expression ("p.family" -> "p"). Bare column
/// names are reported under "" (treated as multi-alias, i.e. not pushable).
std::set<std::string> ReferencedAliases(const Expr& e) {
  std::set<std::string> out;
  std::vector<std::string> cols;
  e.CollectColumns(&cols);
  for (const auto& c : cols) {
    size_t dot = c.find('.');
    out.insert(dot == std::string::npos ? "" : c.substr(0, dot));
  }
  return out;
}

}  // namespace

ExprPtr FoldConstants(const ExprPtr& expr, const Catalog& catalog) {
  if (!expr) return expr;
  auto folded = expr->Clone();
  for (auto& c : folded->children) c = FoldConstants(c, catalog);
  if (folded->kind == ExprKind::kLiteral ||
      folded->kind == ExprKind::kColumnRef) {
    return folded;
  }
  if (!IsPureLiteralTree(*folded)) return folded;
  EvalContext ctx{catalog.tree(), catalog.tree_index()};
  storage::Row empty;
  auto value = EvalExpr(*folded, empty, ctx);
  if (!value.ok()) return folded;  // e.g. unknown node name: leave to runtime
  return Expr::Literal(std::move(value).ValueUnsafe());
}

util::Result<ExprPtr> RewriteTreePredicates(
    const ExprPtr& expr, const Catalog& catalog,
    const std::map<std::string, std::string>& alias_to_table) {
  if (!expr) return expr;
  auto out = expr->Clone();
  for (auto& c : out->children) {
    DRUGTREE_ASSIGN_OR_RETURN(c,
                              RewriteTreePredicates(c, catalog, alias_to_table));
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
  std::string col_name = col.column.substr(dot + 1);
  auto it = alias_to_table.find(alias);
  if (it == alias_to_table.end()) return out;
  const TreeBinding* binding = catalog.GetTreeBinding(it->second);
  if (binding == nullptr || binding->node_col != col_name) return out;

  // Resolve the reference node at plan time.
  phylo::NodeId node = phylo::kInvalidNode;
  if (node_arg.literal.type() == ValueType::kString) {
    node = catalog.tree()->FindByName(node_arg.literal.AsString());
  } else if (node_arg.literal.type() == ValueType::kInt64) {
    auto id = static_cast<phylo::NodeId>(node_arg.literal.AsInt64());
    if (catalog.tree()->Contains(id)) node = id;
  }
  if (node == phylo::kInvalidNode) {
    return util::Status::NotFound("tree node not found: " +
                                  node_arg.literal.ToString());
  }
  const phylo::TreeIndex& index = *catalog.tree_index();
  if (out->function == "SUBTREE") {
    // pre(node) <= row.pre <= post(node).
    ExprPtr pre_col = Expr::Column(alias + "." + binding->pre_col);
    return Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kGe, pre_col->Clone(),
                     Expr::Literal(Value::Int64(index.Pre(node)))),
        Expr::Binary(BinaryOp::kLe, pre_col,
                     Expr::Literal(Value::Int64(index.Post(node)))));
  }
  // ANCESTOR_OF needs the row's post column.
  if (binding->post_col.empty()) return out;
  ExprPtr pre_col = Expr::Column(alias + "." + binding->pre_col);
  ExprPtr post_col = Expr::Column(alias + "." + binding->post_col);
  return Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLe, pre_col,
                   Expr::Literal(Value::Int64(index.Pre(node)))),
      Expr::Binary(BinaryOp::kGe, post_col,
                   Expr::Literal(Value::Int64(index.Pre(node)))));
}

namespace {

struct JoinRegion {
  std::vector<LogicalPtr> scans;           // kScan leaves, textual order
  std::vector<ExprPtr> conjuncts;          // all predicates in the region
};

// Collects the scans and predicates of a Filter/Join/Scan region.
util::Status CollectRegion(const LogicalPtr& node, JoinRegion* region) {
  switch (node->kind) {
    case LogicalKind::kScan: {
      auto scan = LogicalNode::Scan(node->table, node->alias);
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

bool IsJoinRegionNode(const LogicalNode& node) {
  return node.kind == LogicalKind::kScan || node.kind == LogicalKind::kFilter ||
         node.kind == LogicalKind::kJoin;
}

// True for a conjunct of the shape colA = colB across two different aliases.
bool IsEquiJoinCondition(const Expr& e, std::string* left_col,
                         std::string* right_col) {
  if (e.kind != ExprKind::kBinary || e.bin_op != BinaryOp::kEq) return false;
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind != ExprKind::kColumnRef || r.kind != ExprKind::kColumnRef) {
    return false;
  }
  auto la = ReferencedAliases(l);
  auto ra = ReferencedAliases(r);
  if (la.size() != 1 || ra.size() != 1 || *la.begin() == *ra.begin() ||
      la.count("") || ra.count("")) {
    return false;
  }
  *left_col = l.column;
  *right_col = r.column;
  return true;
}

}  // namespace

util::Result<LogicalPtr> OptimizeLogicalPlan(const LogicalPtr& plan,
                                             const Catalog& catalog,
                                             const OptimizerOptions& options) {
  // Peel the pipeline above the join region.
  std::vector<LogicalPtr> pipeline;  // from root downwards (clones, childless)
  LogicalPtr cursor = plan;
  while (cursor && !IsJoinRegionNode(*cursor)) {
    auto copy = std::make_shared<LogicalNode>(*cursor);
    copy->children.clear();
    pipeline.push_back(copy);
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

  // Classify conjuncts.
  std::map<std::string, std::vector<ExprPtr>> scan_preds;
  std::vector<ExprPtr> residual;
  struct PendingEdge {
    std::string left_col, right_col;
    ExprPtr condition;
  };
  std::vector<PendingEdge> pending_edges;
  for (auto& c : conjuncts) {
    auto aliases = ReferencedAliases(*c);
    std::string lc, rc;
    if (aliases.size() == 1 && !aliases.count("") && options.enable_pushdown) {
      scan_preds[*aliases.begin()].push_back(std::move(c));
    } else if (aliases.size() == 2 && IsEquiJoinCondition(*c, &lc, &rc)) {
      pending_edges.push_back({lc, rc, std::move(c)});
    } else {
      residual.push_back(std::move(c));
    }
  }

  // Attach scan predicates and estimate cardinalities. The estimates only
  // steer join order and join methods, so a lone scan skips them (an exact
  // clade count walks the clade's index entries).
  CostModel cost(&catalog, alias_to_table, options.costs);
  std::vector<JoinRelation> relations;
  std::map<std::string, size_t> alias_index;
  for (auto& s : region.scans) {
    auto it = scan_preds.find(s->alias);
    if (it != scan_preds.end()) {
      s->scan_predicate = CombineConjuncts(it->second);
    }
    alias_index[s->alias] = relations.size();
    relations.push_back(
        {s->alias, region.scans.size() > 1
                       ? cost.EstimateScanRows(s->alias, s->scan_predicate)
                       : 1.0});
  }

  std::vector<JoinEdge> edges;
  for (auto& pe : pending_edges) {
    std::string la = pe.left_col.substr(0, pe.left_col.find('.'));
    std::string ra = pe.right_col.substr(0, pe.right_col.find('.'));
    JoinEdge e;
    e.left_rel = alias_index[la];
    e.right_rel = alias_index[ra];
    e.condition = pe.condition;
    e.selectivity = cost.JoinSelectivity(pe.left_col, pe.right_col);
    edges.push_back(std::move(e));
  }

  DRUGTREE_ASSIGN_OR_RETURN(JoinOrderResult order, [&] {
    DT_SPAN("query.join_order");
    return ChooseJoinOrder(relations, edges, options.enable_join_reorder,
                           cost.costs());
  }());

  // Rebuild the join tree left-deep in the chosen order. Each step records
  // the join method the cost model prices cheaper at the step's estimated
  // outer and output rows.
  LogicalPtr rebuilt = region.scans[order.order[0]];
  for (size_t step = 1; step < order.order.size(); ++step) {
    const std::vector<ExprPtr>& conditions = order.conditions[step - 1];
    const LogicalPtr& inner = region.scans[order.order[step]];
    rebuilt = LogicalNode::Join(rebuilt, inner, CombineConjuncts(conditions));
    // Every step condition is an equi-edge `colA = colB`; collect its inner
    // side.
    std::vector<std::string> inner_keys;
    for (const auto& c : conditions) {
      for (const auto& side : c->children) {
        if (*ReferencedAliases(*side).begin() == inner->alias) {
          inner_keys.push_back(side->column);
        }
      }
    }
    CostModel::JoinPricing price =
        cost.PriceJoin(order.rows[step - 1], order.rows[step], inner->alias,
                       inner->scan_predicate, inner_keys);
    if (price.index_nested_loop < price.hash) {
      rebuilt->join_method = JoinMethod::kIndexNestedLoop;
      rebuilt->index_column = price.index_column;
    }
  }
  if (!residual.empty()) {
    rebuilt = LogicalNode::Filter(rebuilt, CombineConjuncts(residual));
  }

  // Reattach the pipeline.
  for (auto it = pipeline.rbegin(); it != pipeline.rend(); ++it) {
    (*it)->children = {rebuilt};
    rebuilt = *it;
  }
  DRUGTREE_RETURN_IF_ERROR(ComputeSchema(rebuilt.get(), catalog));
  return rebuilt;
}

}  // namespace query
}  // namespace drugtree
