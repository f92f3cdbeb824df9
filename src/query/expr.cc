#include "query/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->function = util::ToUpper(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_shared<Expr>(*this);
  for (auto& c : e->children) c = c->Clone();
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == ValueType::kString
                 ? "'" + literal.ToString() + "'"
                 : literal.ToString();
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + BinaryOpName(bin_op) + " " +
             children[1]->ToString() + ")";
    case ExprKind::kUnary:
      return un_op == UnaryOp::kNot ? "(NOT " + children[0]->ToString() + ")"
                                    : "(-" + children[0]->ToString() + ")";
    case ExprKind::kFunction: {
      std::string out = function + "(";
      if (function == "COUNT" && children.empty()) out += "*";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

bool Expr::IsAggregate() const {
  if (kind != ExprKind::kFunction) return false;
  return function == "COUNT" || function == "SUM" || function == "AVG" ||
         function == "MIN" || function == "MAX";
}

bool Expr::ContainsAggregate() const {
  if (IsAggregate()) return true;
  for (const auto& c : children) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind == ExprKind::kColumnRef) {
    if (std::find(out->begin(), out->end(), column) == out->end()) {
      out->push_back(column);
    }
  }
  for (const auto& c : children) c->CollectColumns(out);
}

util::Result<size_t> ResolveColumn(const Schema& schema,
                                   const std::string& name) {
  // Exact match first.
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (schema.column(i).name == name) return i;
  }
  // Suffix match ".name" for bare column names.
  std::string suffix = "." + name;
  int found = -1;
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (util::EndsWith(schema.column(i).name, suffix)) {
      if (found >= 0) {
        return util::Status::InvalidArgument("ambiguous column: " + name);
      }
      found = static_cast<int>(i);
    }
  }
  if (found < 0) {
    return util::Status::NotFound("unknown column: " + name + " (schema: " +
                                  schema.ToString() + ")");
  }
  return static_cast<size_t>(found);
}

util::Status BindExpr(Expr* expr, const Schema& schema) {
  if (expr->kind == ExprKind::kColumnRef) {
    DRUGTREE_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(schema, expr->column));
    expr->bound_index = static_cast<int>(idx);
  }
  for (auto& c : expr->children) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(c.get(), schema));
  }
  return util::Status::OK();
}

namespace {

util::Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = l.Compare(r);
  bool res;
  switch (op) {
    case BinaryOp::kEq: res = c == 0; break;
    case BinaryOp::kNe: res = c != 0; break;
    case BinaryOp::kLt: res = c < 0; break;
    case BinaryOp::kLe: res = c <= 0; break;
    case BinaryOp::kGt: res = c > 0; break;
    case BinaryOp::kGe: res = c >= 0; break;
    default:
      return util::Status::Internal("not a comparison");
  }
  return Value::Bool(res);
}

util::Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Integer arithmetic when both sides are Int64 (except division).
  if (l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64 &&
      op != BinaryOp::kDiv) {
    int64_t a = l.AsInt64(), b = r.AsInt64();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int64(a + b);
      case BinaryOp::kSub: return Value::Int64(a - b);
      case BinaryOp::kMul: return Value::Int64(a * b);
      default: break;
    }
  }
  DRUGTREE_ASSIGN_OR_RETURN(double a, l.ToNumeric());
  DRUGTREE_ASSIGN_OR_RETURN(double b, r.ToNumeric());
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(a + b);
    case BinaryOp::kSub: return Value::Double(a - b);
    case BinaryOp::kMul: return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return util::Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    default:
      return util::Status::Internal("not arithmetic");
  }
}

util::Result<Value> EvalUnary(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kNot) {
    if (v.is_null()) return Value::Null();
    if (v.type() != ValueType::kBool) {
      return util::Status::InvalidArgument("NOT of non-boolean");
    }
    return Value::Bool(!v.AsBool());
  }
  if (v.is_null()) return Value::Null();
  if (v.type() == ValueType::kInt64) return Value::Int64(-v.AsInt64());
  DRUGTREE_ASSIGN_OR_RETURN(double d, v.ToNumeric());
  return Value::Double(-d);
}

// Kleene three-valued AND/OR over {false, true, null}.
util::Result<Value> EvalLogical(BinaryOp op, const Value& l, const Value& r) {
  auto truth = [](const Value& v) -> util::Result<int> {
    if (v.is_null()) return 2;  // unknown
    if (v.type() != ValueType::kBool) {
      return util::Status::InvalidArgument(
          "logical operand is not boolean: " + v.ToString());
    }
    return v.AsBool() ? 1 : 0;
  };
  DRUGTREE_ASSIGN_OR_RETURN(int a, truth(l));
  DRUGTREE_ASSIGN_OR_RETURN(int b, truth(r));
  if (op == BinaryOp::kAnd) {
    if (a == 0 || b == 0) return Value::Bool(false);
    if (a == 2 || b == 2) return Value::Null();
    return Value::Bool(true);
  }
  // OR
  if (a == 1 || b == 1) return Value::Bool(true);
  if (a == 2 || b == 2) return Value::Null();
  return Value::Bool(false);
}

util::Result<phylo::NodeId> ResolveTreeNode(const EvalContext& ctx,
                                            const Value& v) {
  if (ctx.tree == nullptr || ctx.tree_index == nullptr) {
    return util::Status::InvalidArgument(
        "tree function used without a phylogeny in context");
  }
  if (v.type() == ValueType::kInt64) {
    auto id = static_cast<phylo::NodeId>(v.AsInt64());
    if (!ctx.tree->Contains(id)) {
      return util::Status::NotFound(
          util::StringPrintf("no tree node %d", id));
    }
    return id;
  }
  if (v.type() == ValueType::kString) {
    phylo::NodeId id = ctx.tree->FindByName(v.AsString());
    if (id == phylo::kInvalidNode) {
      return util::Status::NotFound("no tree node named " + v.AsString());
    }
    return id;
  }
  return util::Status::InvalidArgument("tree node must be an id or a name");
}

// Applies a scalar function to already-evaluated arguments.
util::Result<Value> ApplyFunction(const Expr& expr,
                                  const std::vector<Value>& args,
                                  const EvalContext& ctx) {
  const std::string& f = expr.function;
  if (f == "SUBTREE" || f == "ANCESTOR_OF") {
    if (args.size() != 2) {
      return util::Status::InvalidArgument(f + " takes (node_column, node)");
    }
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    DRUGTREE_ASSIGN_OR_RETURN(phylo::NodeId row_node,
                              ResolveTreeNode(ctx, args[0]));
    DRUGTREE_ASSIGN_OR_RETURN(phylo::NodeId ref_node,
                              ResolveTreeNode(ctx, args[1]));
    bool res = f == "SUBTREE"
                   ? ctx.tree_index->IsAncestor(ref_node, row_node)
                   : ctx.tree_index->IsAncestor(row_node, ref_node);
    return Value::Bool(res);
  }
  if (f == "TREE_DEPTH") {
    if (args.size() != 1) {
      return util::Status::InvalidArgument("TREE_DEPTH takes (node_column)");
    }
    if (args[0].is_null()) return Value::Null();
    DRUGTREE_ASSIGN_OR_RETURN(phylo::NodeId node,
                              ResolveTreeNode(ctx, args[0]));
    return Value::Int64(ctx.tree_index->Depth(node));
  }
  if (f == "TREE_DIST") {
    if (args.size() != 2) {
      return util::Status::InvalidArgument("TREE_DIST takes (node, node)");
    }
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    DRUGTREE_ASSIGN_OR_RETURN(phylo::NodeId a, ResolveTreeNode(ctx, args[0]));
    DRUGTREE_ASSIGN_OR_RETURN(phylo::NodeId b, ResolveTreeNode(ctx, args[1]));
    return Value::Double(ctx.tree_index->PathLength(a, b));
  }
  if (f == "IS_NULL") {
    if (args.size() != 1) {
      return util::Status::InvalidArgument("IS_NULL takes one argument");
    }
    return Value::Bool(args[0].is_null());
  }
  if (f == "ABS") {
    if (args.size() != 1) {
      return util::Status::InvalidArgument("ABS takes one argument");
    }
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == ValueType::kInt64) {
      return Value::Int64(std::abs(args[0].AsInt64()));
    }
    DRUGTREE_ASSIGN_OR_RETURN(double d, args[0].ToNumeric());
    return Value::Double(std::abs(d));
  }
  return util::Status::Unimplemented("unknown function: " + f);
}

util::Result<Value> EvalFunction(const Expr& expr, const Row& row,
                                 const EvalContext& ctx) {
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& c : expr.children) {
    DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, row, ctx));
    args.push_back(std::move(v));
  }
  return ApplyFunction(expr, args, ctx);
}

}  // namespace

util::Result<Value> EvalExpr(const Expr& expr, const Row& row,
                             const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.bound_index < 0 ||
          static_cast<size_t>(expr.bound_index) >= row.size()) {
        return util::Status::Internal("unbound column ref: " + expr.column);
      }
      return row[static_cast<size_t>(expr.bound_index)];
    }
    case ExprKind::kBinary: {
      switch (expr.bin_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          DRUGTREE_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.children[0], row, ctx));
          DRUGTREE_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.children[1], row, ctx));
          return EvalLogical(expr.bin_op, l, r);
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv: {
          DRUGTREE_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.children[0], row, ctx));
          DRUGTREE_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.children[1], row, ctx));
          return EvalArithmetic(expr.bin_op, l, r);
        }
        default: {
          DRUGTREE_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.children[0], row, ctx));
          DRUGTREE_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.children[1], row, ctx));
          return EvalComparison(expr.bin_op, l, r);
        }
      }
    }
    case ExprKind::kUnary: {
      DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row, ctx));
      return EvalUnary(expr.un_op, v);
    }
    case ExprKind::kFunction:
      if (expr.IsAggregate()) {
        return util::Status::Internal(
            "aggregate evaluated as scalar: " + expr.function);
      }
      return EvalFunction(expr, row, ctx);
  }
  return util::Status::Internal("unknown expr kind");
}

util::Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                                 const EvalContext& ctx) {
  DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row, ctx));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBool) {
    return util::Status::InvalidArgument("predicate is not boolean: " +
                                         expr.ToString());
  }
  return v.AsBool();
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!expr) return out;
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinaryOp::kAnd) {
    auto l = SplitConjuncts(expr->children[0]);
    auto r = SplitConjuncts(expr->children[1]);
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(expr->Clone());
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const auto& c : conjuncts) {
    out = out ? Expr::Binary(BinaryOp::kAnd, out, c->Clone()) : c->Clone();
  }
  return out;
}

}  // namespace query
}  // namespace drugtree
