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
  e->children.reserve(2);
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->function = util::ToUpper(name);
  e->children = std::move(args);
  return e;
}

const Value& ParamBindings::ValueFor(const Expr& literal,
                                     Value* scratch) const {
  const auto ordinal = static_cast<size_t>(literal.param_index);
  if (literal.param_role == ParamRole::kValue) {
    return ordinal < values.size() ? values[ordinal] : literal.literal;
  }
  for (const Interval& iv : intervals) {
    if (iv.ordinal == literal.param_index) {
      *scratch = Value::Int64(literal.param_role == ParamRole::kPre ? iv.pre
                                                                    : iv.post);
      return *scratch;
    }
  }
  return literal.literal;
}

const Value& BoundValue(const Expr& literal, const ParamBindings* bindings,
                        Value* scratch) {
  if (bindings == nullptr || literal.param_index < 0) return literal.literal;
  return bindings->ValueFor(literal, scratch);
}

ExprPtr Expr::Clone(const ParamBindings* bindings,
                    std::vector<LiteralSlot>* slots) const {
  auto e = std::make_shared<Expr>(*this);
  if (kind == ExprKind::kLiteral && param_index >= 0) {
    if (bindings != nullptr) {
      Value scratch;
      e->literal = bindings->ValueFor(*this, &scratch);
    }
    if (slots != nullptr) slots->push_back({e.get(), literal});
  }
  for (auto& c : e->children) c = c->Clone(bindings, slots);
  return e;
}

bool Expr::SameTree(const Expr& other) const {
  if (kind != other.kind || children.size() != other.children.size()) {
    return false;
  }
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.type() != other.literal.type() ||
          (!literal.is_null() && literal.Compare(other.literal) != 0)) {
        return false;
      }
      break;
    case ExprKind::kColumnRef:
      if (column != other.column) return false;
      break;
    case ExprKind::kBinary:
      if (bin_op != other.bin_op) return false;
      break;
    case ExprKind::kUnary:
      if (un_op != other.un_op) return false;
      break;
    case ExprKind::kFunction:
      if (function != other.function) return false;
      break;
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->SameTree(*other.children[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral: {
      if (literal.type() != ValueType::kString) return literal.ToString();
      // Quoted as the lexer reads it back: an embedded quote is doubled.
      std::string out = "'";
      for (char c : literal.AsString()) {
        if (c == '\'') out += '\'';
        out += c;
      }
      return out + "'";
    }
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

/// A literal's value or a bound column's cell, read in place; null for
/// any other operand.
const Value* OperandInPlace(const Expr& e, const Row& row) {
  if (e.kind == ExprKind::kLiteral) return &e.literal;
  if (e.kind == ExprKind::kColumnRef && e.bound_index >= 0 &&
      static_cast<size_t>(e.bound_index) < row.size()) {
    return &row[static_cast<size_t>(e.bound_index)];
  }
  return nullptr;
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
          // Comparisons of columns and literals (every pushed-down bound
          // and most residuals) read both operands in place.
          const Value* lv = OperandInPlace(*expr.children[0], row);
          const Value* rv = OperandInPlace(*expr.children[1], row);
          if (lv != nullptr && rv != nullptr) {
            return EvalComparison(expr.bin_op, *lv, *rv);
          }
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

namespace {

void AppendConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinaryOp::kAnd) {
    AppendConjuncts(expr->children[0], out);
    AppendConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

}  // namespace

bool MatchColumnComparison(const Expr& e, ColumnComparison* out) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.bin_op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral) {
    *out = {&l, e.bin_op, &r};
    return true;
  }
  if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral) {
    BinaryOp op = e.bin_op;
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
    *out = {&r, op, &l};
    return true;
  }
  return false;
}

void ValueRange::Narrow(BinaryOp op, const Value& v) {
  const bool inclusive = op == BinaryOp::kLe || op == BinaryOp::kGe;
  if (op == BinaryOp::kGt || op == BinaryOp::kGe) {
    const int c = lo.is_null() ? 1 : v.Compare(lo);
    if (c > 0 || (c == 0 && !inclusive)) {
      lo = v;
      lo_inclusive = inclusive;
    }
  } else {
    const int c = hi.is_null() ? -1 : v.Compare(hi);
    if (c < 0 || (c == 0 && !inclusive)) {
      hi = v;
      hi_inclusive = inclusive;
    }
  }
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr) AppendConjuncts(expr, &out);
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const auto& c : conjuncts) {
    out = out ? Expr::Binary(BinaryOp::kAnd, std::move(out), c) : c;
  }
  return out;
}

}  // namespace query
}  // namespace drugtree
