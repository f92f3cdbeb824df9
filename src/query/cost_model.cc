#include "query/cost_model.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::ColumnStats;
using storage::Value;

namespace {

/// "alias.column" -> "column".
std::string Unqualified(std::string_view qualified) {
  return std::string(qualified.substr(qualified.find('.') + 1));
}

}  // namespace

CostModel::CostModel(
    const Catalog* catalog,
    const std::map<std::string, std::string>& alias_to_table) {
  for (const auto& [alias, name] : alias_to_table) {
    auto table = catalog->Lookup(name);
    if (!table.ok()) continue;
    const TreeBinding* binding = catalog->GetTreeBinding(name);
    relations_[alias] = {
        *table, binding,
        binding != nullptr ? (*table)->GetBTreeIndex(binding->pre_col)
                           : nullptr};
  }
}

const CostModel::Relation* CostModel::RelationFor(
    std::string_view alias) const {
  auto it = relations_.find(alias);
  return it == relations_.end() ? nullptr : &it->second;
}

const storage::Table* CostModel::TableFor(std::string_view alias) const {
  const Relation* relation = RelationFor(alias);
  return relation == nullptr ? nullptr : relation->table;
}

const ColumnStats* CostModel::StatsFor(std::string_view qualified) const {
  size_t dot = qualified.find('.');
  if (dot == std::string_view::npos) return nullptr;
  const storage::Table* table = TableFor(qualified.substr(0, dot));
  if (table == nullptr || table->stats() == nullptr) return nullptr;
  auto idx = table->schema().IndexOf(qualified.substr(dot + 1));
  if (!idx.ok()) return nullptr;
  return &table->stats()->column(*idx);
}

double CostModel::TableRows(std::string_view alias) const {
  const storage::Table* table = TableFor(alias);
  if (table == nullptr) return 1000.0;
  return std::max<double>(1.0, static_cast<double>(table->NumRows()));
}

double CostModel::ConjunctSelectivity(const Expr& conjunct,
                                      const ParamBindings* bindings) const {
  if (conjunct.kind == ExprKind::kBinary) {
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    BinaryOp op = conjunct.bin_op;
    const Expr* l = conjunct.children[0].get();
    const Expr* r = conjunct.children[1].get();
    auto flip = [](BinaryOp o) {
      switch (o) {
        case BinaryOp::kLt: return BinaryOp::kGt;
        case BinaryOp::kLe: return BinaryOp::kGe;
        case BinaryOp::kGt: return BinaryOp::kLt;
        case BinaryOp::kGe: return BinaryOp::kLe;
        default: return o;
      }
    };
    if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kLiteral) {
      col = l;
      lit = r;
    } else if (r->kind == ExprKind::kColumnRef &&
               l->kind == ExprKind::kLiteral) {
      col = r;
      lit = l;
      op = flip(op);
    }
    if (col != nullptr) {
      const ColumnStats* stats = StatsFor(col->column);
      if (stats != nullptr) {
        Value scratch;
        const Value& v = BoundValue(*lit, bindings, &scratch);
        switch (op) {
          case BinaryOp::kEq:
            return stats->EqualitySelectivity(v);
          case BinaryOp::kNe:
            return std::clamp(1.0 - stats->EqualitySelectivity(v), 0.0, 1.0);
          case BinaryOp::kLt:
          case BinaryOp::kLe:
            return stats->RangeSelectivity(Value::Null(), true, v,
                                           op == BinaryOp::kLe);
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            return stats->RangeSelectivity(v, op == BinaryOp::kGe,
                                           Value::Null(), true);
          default:
            break;
        }
      }
      // No stats: the priors.
      switch (op) {
        case BinaryOp::kEq: return kEqDefaultSelectivity;
        case BinaryOp::kNe: return kNeDefaultSelectivity;
        default: return kRangeDefaultSelectivity;
      }
    }
    if (conjunct.bin_op == BinaryOp::kAnd) {
      return ConjunctSelectivity(*l, bindings) *
             ConjunctSelectivity(*r, bindings);
    }
    if (conjunct.bin_op == BinaryOp::kOr) {
      double a = ConjunctSelectivity(*l, bindings),
             b = ConjunctSelectivity(*r, bindings);
      return std::clamp(a + b - a * b, 0.0, 1.0);
    }
  }
  if (conjunct.kind == ExprKind::kFunction) {
    // Tree predicates before rewriting: the interval-index priors.
    if (conjunct.function == "SUBTREE") return kSubtreeSelectivity;
    if (conjunct.function == "ANCESTOR_OF") return kAncestorSelectivity;
    if (conjunct.function == "IS_NULL") return kIsNullSelectivity;
  }
  if (conjunct.kind == ExprKind::kUnary &&
      conjunct.un_op == UnaryOp::kNot) {
    return std::clamp(
        1.0 - ConjunctSelectivity(*conjunct.children[0], bindings), 0.0, 1.0);
  }
  return 0.5;
}

bool CostModel::FoldRangeBound(const Expr& conjunct,
                               const ParamBindings* bindings,
                               Intervals* intervals) {
  ColumnComparison cmp;
  if (!MatchColumnComparison(conjunct, &cmp) || cmp.op == BinaryOp::kEq) {
    return false;
  }
  Value scratch;
  const Value& v = BoundValue(*cmp.literal, bindings, &scratch);
  if (v.is_null()) return false;
  const std::string_view column = cmp.column->column;
  auto at = std::lower_bound(
      intervals->begin(), intervals->end(), column,
      [](const auto& entry, std::string_view c) { return entry.first < c; });
  if (at == intervals->end() || at->first != column) {
    at = intervals->insert(at, {column, ValueRange()});
  }
  at->second.Narrow(cmp.op, v);
  return true;
}

double CostModel::IntervalSelectivity(std::string_view qualified,
                                      const ValueRange& iv) const {
  const size_t dot = qualified.find('.');
  const std::string_view alias = qualified.substr(0, dot);
  // A rewritten SUBTREE is an interval on the tree-bound pre-order column;
  // its B+-tree counts the clade's rows exactly.
  const Relation* relation = RelationFor(alias);
  if (relation != nullptr && relation->pre_index != nullptr &&
      qualified.substr(dot + 1) == relation->binding->pre_col) {
    const size_t rows = relation->pre_index->RangeCount(
        iv.lo, iv.lo_inclusive, iv.hi, iv.hi_inclusive);
    return static_cast<double>(rows) / TableRows(alias);
  }
  if (const ColumnStats* stats = StatsFor(qualified)) {
    return stats->RangeSelectivity(iv.lo, iv.lo_inclusive, iv.hi,
                                   iv.hi_inclusive);
  }
  return kRangeDefaultSelectivity;
}

double CostModel::EstimateScanRows(const std::string& alias,
                                   const ExprPtr& pred) const {
  return EstimateScanRows(alias, SplitConjuncts(pred), nullptr);
}

double CostModel::EstimateScanRows(std::string_view alias,
                                   std::span<const ExprPtr> conjuncts,
                                   const ParamBindings* bindings) const {
  double rows = TableRows(alias);
  // Bounds on one column are not independent filters: two sides of a
  // clade interval each keep about half the table, yet together keep the
  // clade. Fold them into one interval per column.
  Intervals intervals;
  for (const auto& c : conjuncts) {
    if (!FoldRangeBound(*c, bindings, &intervals)) {
      rows *= ConjunctSelectivity(*c, bindings);
    }
  }
  for (const auto& [column, iv] : intervals) {
    rows *= IntervalSelectivity(column, iv);
  }
  return std::max(1.0, rows);
}

double CostModel::ScanCost(const std::string& alias) const {
  double per_row = kSeqScanRowCost;
  const storage::Table* table = TableFor(alias);
  if (table != nullptr && table->encoded() != nullptr) {
    per_row *= kEncodedScanDiscount;
  }
  return per_row * TableRows(alias);
}

double CostModel::AccessCost(const std::string& alias, const ExprPtr& pred,
                             double rows) const {
  const storage::Table* table = TableFor(alias);
  if (table != nullptr && pred) {
    for (const auto& c : SplitConjuncts(pred)) {
      // Mirrors physical planning's index selection: equality on any
      // indexed column, or a range (non-NULL bound) on a B+-tree column.
      ColumnComparison cmp;
      if (!MatchColumnComparison(*c, &cmp)) continue;
      const std::string column = Unqualified(cmp.column->column);
      const bool usable = cmp.op == BinaryOp::kEq
                              ? table->HasIndex(column)
                              : !cmp.literal->literal.is_null() &&
                                    table->GetBTreeIndex(column) != nullptr;
      if (usable) return kIndexProbeCost + kIndexRowCost * rows;
    }
  }
  return ScanCost(alias);
}

double CostModel::JoinSelectivity(const std::string& left_col,
                                  const std::string& right_col) const {
  const ColumnStats* l = StatsFor(left_col);
  const ColumnStats* r = StatsFor(right_col);
  double ndv = 0;
  if (l != nullptr) ndv = std::max(ndv, static_cast<double>(l->num_distinct()));
  if (r != nullptr) ndv = std::max(ndv, static_cast<double>(r->num_distinct()));
  if (ndv <= 0) return 0.01;
  return 1.0 / ndv;
}

CostModel::JoinPricing CostModel::PriceJoin(
    double outer_rows, double output_rows, const std::string& inner_alias,
    const ExprPtr& inner_pred, double inner_rows,
    const std::vector<std::string>& inner_keys) const {
  JoinPricing price;
  price.hash = AccessCost(inner_alias, inner_pred, inner_rows) +
               kHashBuildRowCost * inner_rows +
               kHashProbeRowCost * (outer_rows + output_rows);
  const storage::Table* table = TableFor(inner_alias);
  if (table == nullptr) return price;
  for (const std::string& key : inner_keys) {
    const std::string column = Unqualified(key);
    const storage::HashIndex* index = table->GetHashIndex(column);
    if (index == nullptr) continue;
    // Each probe fetches one key's posting list: the average list length.
    const double per_probe =
        index->NumKeys() == 0 ? 0.0
                              : static_cast<double>(index->size()) /
                                    static_cast<double>(index->NumKeys());
    const double cost = kHashProbeRowCost * outer_rows +
                        kIndexRowCost * outer_rows * per_probe;
    if (cost < price.index_nested_loop) {
      price.index_nested_loop = cost;
      price.index_column = column;
    }
  }
  return price;
}

}  // namespace query
}  // namespace drugtree
