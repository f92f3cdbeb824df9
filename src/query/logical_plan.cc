#include "query/logical_plan.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Column;
using storage::Schema;
using storage::ValueType;

LogicalPtr LogicalNode::Scan(std::string table, std::string alias) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kScan;
  n->table = std::move(table);
  n->alias = std::move(alias);
  return n;
}

LogicalPtr LogicalNode::Filter(LogicalPtr child, ExprPtr predicate) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kFilter;
  n->children = {std::move(child)};
  n->predicate = std::move(predicate);
  return n;
}

LogicalPtr LogicalNode::Project(LogicalPtr child,
                                std::vector<OutputColumn> outputs) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kProject;
  n->children = {std::move(child)};
  n->outputs = std::move(outputs);
  return n;
}

LogicalPtr LogicalNode::Join(LogicalPtr left, LogicalPtr right,
                             ExprPtr condition) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kJoin;
  n->children = {std::move(left), std::move(right)};
  n->join_condition = std::move(condition);
  return n;
}

LogicalPtr LogicalNode::Aggregate(LogicalPtr child,
                                  std::vector<ExprPtr> group_by,
                                  std::vector<OutputColumn> aggregates) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kAggregate;
  n->children = {std::move(child)};
  n->group_by = std::move(group_by);
  n->outputs = std::move(aggregates);
  return n;
}

LogicalPtr LogicalNode::Sort(LogicalPtr child, std::vector<OrderKey> keys) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kSort;
  n->children = {std::move(child)};
  n->order_by = std::move(keys);
  return n;
}

LogicalPtr LogicalNode::Limit(LogicalPtr child, int64_t limit) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kLimit;
  n->children = {std::move(child)};
  n->limit = limit;
  return n;
}

LogicalPtr LogicalNode::Distinct(LogicalPtr child) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalKind::kDistinct;
  n->children = {std::move(child)};
  return n;
}

std::string LogicalNode::ToString(int indent,
                                  const ParamBindings* bindings) const {
  auto render = [bindings](const ExprPtr& e) {
    return bindings != nullptr ? e->Clone(bindings)->ToString()
                               : e->ToString();
  };
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad;
  switch (kind) {
    case LogicalKind::kScan:
      out += "Scan " + table;
      if (alias != table) out += " AS " + alias;
      if (scan_predicate) out += " [pred: " + render(scan_predicate) + "]";
      out += ColumnListLabel(*full_schema, columns);
      break;
    case LogicalKind::kFilter:
      out += "Filter " + (predicate ? render(predicate) : "true");
      break;
    case LogicalKind::kProject: {
      out += "Project ";
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (i) out += ", ";
        out += render(outputs[i].expr) + " AS " + outputs[i].name;
      }
      break;
    }
    case LogicalKind::kJoin:
      out += "Join";
      if (join_condition) out += " ON " + render(join_condition);
      else out += " (cross)";
      if (join_method == JoinMethod::kIndexNestedLoop) {
        out += " [index nested-loop: " + children[1]->alias + "." +
               index_column + "]";
      }
      break;
    case LogicalKind::kAggregate: {
      out += "Aggregate";
      if (!group_by.empty()) {
        out += " GROUP BY ";
        for (size_t i = 0; i < group_by.size(); ++i) {
          if (i) out += ", ";
          out += render(group_by[i]);
        }
      }
      out += " [";
      for (size_t i = 0; i < outputs.size(); ++i) {
        if (i) out += ", ";
        out += render(outputs[i].expr);
      }
      out += "]";
      break;
    }
    case LogicalKind::kSort: {
      out += "Sort ";
      for (size_t i = 0; i < order_by.size(); ++i) {
        if (i) out += ", ";
        out += render(order_by[i].expr);
        if (!order_by[i].ascending) out += " DESC";
      }
      break;
    }
    case LogicalKind::kLimit:
      out += util::StringPrintf("Limit %lld", (long long)limit);
      break;
    case LogicalKind::kDistinct:
      out += "Distinct";
      break;
  }
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1, bindings);
  return out;
}

void ForEachExpr(const LogicalNode& plan,
                 const std::function<void(const Expr&)>& fn) {
  for (const Expr* e : {plan.scan_predicate.get(), plan.predicate.get(),
                        plan.join_condition.get()}) {
    if (e != nullptr) fn(*e);
  }
  for (const auto& o : plan.outputs) fn(*o.expr);
  for (const auto& g : plan.group_by) fn(*g);
  for (const auto& k : plan.order_by) fn(*k.expr);
  for (const auto& c : plan.children) ForEachExpr(*c, fn);
}

namespace {

// Infers a (loose) output type for an expression against a child schema; the
// engine is dynamically typed at execution, so this only labels schemas.
ValueType InferType(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.is_null() ? ValueType::kString : expr.literal.type();
    case ExprKind::kColumnRef: {
      auto idx = ResolveColumn(schema, expr.column);
      return idx.ok() ? schema.column(*idx).type : ValueType::kString;
    }
    case ExprKind::kBinary:
      switch (expr.bin_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return ValueType::kDouble;
        default:
          return ValueType::kBool;
      }
    case ExprKind::kUnary:
      return expr.un_op == UnaryOp::kNot ? ValueType::kBool
                                         : ValueType::kDouble;
    case ExprKind::kFunction:
      if (expr.function == "COUNT") return ValueType::kInt64;
      if (expr.function == "SUBTREE" || expr.function == "ANCESTOR_OF" ||
          expr.function == "IS_NULL") {
        return ValueType::kBool;
      }
      if (expr.function == "TREE_DEPTH") return ValueType::kInt64;
      if (!expr.children.empty()) return InferType(*expr.children[0], schema);
      return ValueType::kDouble;
  }
  return ValueType::kString;
}

}  // namespace

std::string ColumnListLabel(const Schema& full,
                            const std::vector<size_t>& columns) {
  if (columns.size() == full.NumColumns()) return "";
  std::string out = " [columns:";
  for (size_t i = 0; i < columns.size(); ++i) {
    out += i ? ", " : " ";
    out += full.column(columns[i]).name;
  }
  return out + "]";
}

util::Result<Schema> ScanSchema(const storage::Table& table,
                                const std::string& alias) {
  std::vector<Column> cols;
  cols.reserve(table.schema().NumColumns());
  for (const auto& c : table.schema().columns()) {
    std::string name;
    name.reserve(alias.size() + 1 + c.name.size());
    name.append(alias).append(1, '.').append(c.name);
    cols.push_back({std::move(name), c.type, c.nullable});
  }
  return Schema::Create(std::move(cols));
}

util::Status ComputeSchema(LogicalNode* node) {
  switch (node->kind) {
    case LogicalKind::kScan:
      return util::Status::Internal("scan schemas come from ScanSchema");
    case LogicalKind::kFilter:
    case LogicalKind::kSort:
    case LogicalKind::kLimit:
    case LogicalKind::kDistinct:
      node->schema = node->children[0]->schema;
      break;
    case LogicalKind::kJoin: {
      const auto& left = node->children[0]->schema.columns();
      const auto& right = node->children[1]->schema.columns();
      std::vector<Column> cols;
      cols.reserve(left.size() + right.size());
      cols.insert(cols.end(), left.begin(), left.end());
      cols.insert(cols.end(), right.begin(), right.end());
      DRUGTREE_ASSIGN_OR_RETURN(node->schema, Schema::Create(std::move(cols)));
      break;
    }
    case LogicalKind::kProject:
    case LogicalKind::kAggregate: {
      std::vector<Column> cols;
      const Schema& in = node->children[0]->schema;
      if (node->kind == LogicalKind::kAggregate) {
        for (const auto& g : node->group_by) {
          cols.push_back({g->ToString(), InferType(*g, in), true});
        }
      }
      for (const auto& o : node->outputs) {
        cols.push_back({o.name, InferType(*o.expr, in), true});
      }
      DRUGTREE_ASSIGN_OR_RETURN(node->schema, Schema::Create(std::move(cols)));
      break;
    }
  }
  return util::Status::OK();
}

util::Result<LogicalPtr> BuildLogicalPlan(const SelectStatement& stmt,
                                          const Catalog& catalog) {
  if (stmt.tables.empty()) {
    return util::Status::InvalidArgument("query has no tables");
  }
  // Scans in textual order (unique aliases), cross-joined left-deep. Each
  // node's schema is computed once, as it is built.
  std::set<std::string> aliases;
  LogicalPtr plan;
  for (const auto& t : stmt.tables) {
    if (!aliases.insert(t.alias).second) {
      return util::Status::InvalidArgument("duplicate table alias: " + t.alias);
    }
    DRUGTREE_ASSIGN_OR_RETURN(storage::Table * table, catalog.Lookup(t.table));
    LogicalPtr scan = LogicalNode::Scan(t.table, t.alias);
    DRUGTREE_ASSIGN_OR_RETURN(scan->schema, ScanSchema(*table, t.alias));
    scan->full_schema = std::make_shared<const Schema>(scan->schema);
    scan->columns.resize(scan->schema.NumColumns());
    std::iota(scan->columns.begin(), scan->columns.end(), size_t{0});
    if (plan == nullptr) {
      plan = std::move(scan);
      continue;
    }
    plan = LogicalNode::Join(std::move(plan), std::move(scan), nullptr);
    DRUGTREE_RETURN_IF_ERROR(ComputeSchema(plan.get()));
  }
  // Adds `node` on top of the plan.
  auto push = [&plan](LogicalPtr node) -> util::Status {
    plan = std::move(node);
    return ComputeSchema(plan.get());
  };
  if (stmt.where) {
    DRUGTREE_RETURN_IF_ERROR(
        push(LogicalNode::Filter(plan, stmt.where->Clone())));
  }

  // Figure out aggregation.
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.select) {
    if (!item.star && item.expr->ContainsAggregate()) has_agg = true;
  }
  if (has_agg) {
    std::vector<ExprPtr> groups;
    for (const auto& g : stmt.group_by) groups.push_back(g->Clone());
    std::vector<OutputColumn> aggs;
    for (const auto& item : stmt.select) {
      if (item.star) {
        return util::Status::InvalidArgument(
            "SELECT * cannot be combined with aggregation");
      }
      if (item.expr->ContainsAggregate()) {
        if (!item.expr->IsAggregate()) {
          return util::Status::Unimplemented(
              "aggregates must be top-level select expressions");
        }
        aggs.push_back({item.expr->Clone(), item.alias});
      } else {
        // Must be one of the group keys, tree for tree.
        const bool matches = std::any_of(
            stmt.group_by.begin(), stmt.group_by.end(),
            [&item](const ExprPtr& g) { return g->SameTree(*item.expr); });
        if (!matches) {
          return util::Status::InvalidArgument(
              "non-aggregate select item not in GROUP BY: " +
              item.expr->ToString());
        }
      }
    }
    DRUGTREE_RETURN_IF_ERROR(push(
        LogicalNode::Aggregate(plan, std::move(groups), std::move(aggs))));
    // Project to rename group keys + aggregates to the requested aliases in
    // the requested order.
    std::vector<OutputColumn> projections;
    for (const auto& item : stmt.select) {
      if (item.expr->IsAggregate()) {
        projections.push_back({Expr::Column(item.alias), item.alias});
      } else {
        projections.push_back({Expr::Column(item.expr->ToString()), item.alias});
      }
    }
    DRUGTREE_RETURN_IF_ERROR(
        push(LogicalNode::Project(plan, std::move(projections))));
  } else {
    // Plain projection; expand stars.
    std::vector<OutputColumn> projections;
    for (const auto& item : stmt.select) {
      if (item.star) {
        for (const auto& c : plan->schema.columns()) {
          projections.push_back({Expr::Column(c.name), c.name});
        }
      } else {
        projections.push_back({item.expr->Clone(), item.alias});
      }
    }
    DRUGTREE_RETURN_IF_ERROR(
        push(LogicalNode::Project(plan, std::move(projections))));
  }

  if (stmt.distinct) {
    DRUGTREE_RETURN_IF_ERROR(push(LogicalNode::Distinct(plan)));
  }
  if (!stmt.order_by.empty()) {
    std::vector<OrderKey> keys;
    for (const auto& k : stmt.order_by) {
      keys.push_back({k.expr->Clone(), k.ascending});
    }
    DRUGTREE_RETURN_IF_ERROR(push(LogicalNode::Sort(plan, std::move(keys))));
  }
  if (stmt.limit) {
    DRUGTREE_RETURN_IF_ERROR(push(LogicalNode::Limit(plan, *stmt.limit)));
  }
  return plan;
}

}  // namespace query
}  // namespace drugtree
