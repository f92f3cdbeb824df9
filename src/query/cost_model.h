// Cardinality and cost estimation over table statistics — the "standard"
// half of the poster's optimization story. Cost and selectivity constants
// are named coefficients of CostModel, defined once, and every plan is
// priced with them.

#ifndef DRUGTREE_QUERY_COST_MODEL_H_
#define DRUGTREE_QUERY_COST_MODEL_H_

#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "query/catalog.h"
#include "query/expr.h"
#include "util/result.h"

namespace drugtree {
namespace query {

/// Estimates selectivities and cardinalities. Alias-aware: expressions use
/// qualified names ("p.family"), and the estimator is constructed with the
/// alias -> table mapping of the current query, which it resolves against
/// the catalog once.
class CostModel {
 public:
  CostModel(const Catalog* catalog,
            const std::map<std::string, std::string>& alias_to_table);

  /// Base row count of the table behind `alias`.
  double TableRows(std::string_view alias) const;

  /// Selectivity in [0,1] of one conjunct. Handles col-vs-literal
  /// comparisons via column statistics; unknown shapes get the selectivity
  /// priors (range/eq priors, interval-index SUBTREE/ANCESTOR_OF priors).
  /// Tagged literals read their values under `bindings` (BoundValue).
  double ConjunctSelectivity(const Expr& conjunct,
                             const ParamBindings* bindings = nullptr) const;

  /// Estimated output of scanning `alias` under a conjunction (may be null).
  /// Range conjuncts on one column are estimated together as one interval;
  /// an interval on the table's tree-bound pre-order column (a rewritten
  /// SUBTREE) is counted exactly through that column's B+-tree index.
  double EstimateScanRows(const std::string& alias, const ExprPtr& pred) const;

  /// The same estimate over a conjunction's `conjuncts` (SplitConjuncts),
  /// with tagged literals read under `bindings`: the rows a plan made for
  /// other literals would scan for the bound ones, with no predicate copy.
  double EstimateScanRows(std::string_view alias,
                          std::span<const ExprPtr> conjuncts,
                          const ParamBindings* bindings) const;

  /// Estimated cost of scanning `alias`: per-row scan cost times base rows,
  /// with the encoded discount when a fresh compressed snapshot exists.
  double ScanCost(const std::string& alias) const;

  /// Estimated cost of producing the `rows` (EstimateScanRows) of `alias`
  /// under `pred` the way physical planning does: an index scan
  /// (kIndexProbeCost plus kIndexRowCost per row) when a conjunct compares
  /// an indexed column with a literal, else ScanCost.
  double AccessCost(const std::string& alias, const ExprPtr& pred,
                    double rows) const;

  /// Equi-join selectivity for `left_col = right_col`: 1/max(ndv_l, ndv_r);
  /// falls back to 0.01 when statistics are missing.
  double JoinSelectivity(const std::string& left_col,
                         const std::string& right_col) const;

  /// One join step priced both ways.
  struct JoinPricing {
    /// Hash join: AccessCost of the inner scan and kHashBuildRowCost per
    /// inner row to build, then kHashProbeRowCost per outer row and per
    /// match (every candidate's key is re-evaluated and compared).
    double hash = 0.0;
    /// Index nested-loop join: kHashProbeRowCost per outer row plus
    /// kIndexRowCost per fetched row (a key's whole posting list, which the
    /// inner predicate filters after the fetch; the lookup itself is exact).
    /// Infinite when no inner key column has a hash index.
    double index_nested_loop = std::numeric_limits<double>::infinity();
    /// The unqualified inner column whose hash index prices cheapest.
    std::string index_column;
  };

  /// Prices joining `outer_rows` estimated rows to the scan of
  /// `inner_alias` under its pushed-down predicate `inner_pred` (which
  /// yields `inner_rows`, its EstimateScanRows) into `output_rows`
  /// estimated matches, on equi-conditions whose inner sides are the
  /// qualified `inner_keys`.
  JoinPricing PriceJoin(double outer_rows, double output_rows,
                        const std::string& inner_alias,
                        const ExprPtr& inner_pred, double inner_rows,
                        const std::vector<std::string>& inner_keys) const;

  /// Per-row operator costs, in sequential-scan row units (scanning one
  /// plain row costs kSeqScanRowCost = 1).
  static constexpr double kSeqScanRowCost = 1.0;
  static constexpr double kIndexProbeCost = 4.0;   // traversal per probe
  static constexpr double kIndexRowCost = 1.5;     // fetch per matching row
  static constexpr double kHashBuildRowCost = 1.5;
  static constexpr double kHashProbeRowCost = 1.0;
  /// Fraction of kSeqScanRowCost an encoded (compressed columnar) scan
  /// pays per row.
  static constexpr double kEncodedScanDiscount = 0.6;
  /// Join-order step multiplier for a cross product (no connecting edge).
  static constexpr double kCrossProductPenalty = 10.0;

  /// Selectivity priors, used where column statistics cannot answer.
  static constexpr double kSubtreeSelectivity = 0.2;     // SUBTREE clade
  static constexpr double kAncestorSelectivity = 0.01;   // ANCESTOR_OF path
  static constexpr double kIsNullSelectivity = 0.05;
  static constexpr double kEqDefaultSelectivity = 0.1;
  static constexpr double kNeDefaultSelectivity = 0.9;
  static constexpr double kRangeDefaultSelectivity = 0.33;

 private:
  /// Each column's range, folded from a conjunction's comparisons, by
  /// qualified column name (a view into the conjunct), in name order: the
  /// order their selectivities multiply in.
  using Intervals = std::vector<std::pair<std::string_view, ValueRange>>;

  /// Folds `column op literal` (op one of < <= > >=, either operand order)
  /// into `intervals`, the literal read under `bindings`; false for any
  /// other shape or a NULL literal.
  static bool FoldRangeBound(const Expr& conjunct,
                             const ParamBindings* bindings,
                             Intervals* intervals);

  /// Selectivity of one column's interval (qualified column name).
  double IntervalSelectivity(std::string_view qualified,
                             const ValueRange& interval) const;

  /// A query alias resolved against the catalog.
  struct Relation {
    const storage::Table* table = nullptr;
    const TreeBinding* binding = nullptr;  // null when the table has none
    /// The B+-tree on the binding's pre-order column; null without one.
    const storage::BPlusTree* pre_index = nullptr;
  };

  /// The relation behind `alias`, or null when the alias or its table is
  /// unknown.
  const Relation* RelationFor(std::string_view alias) const;

  /// The table behind `alias`, or null.
  const storage::Table* TableFor(std::string_view alias) const;

  /// Splits "alias.column"; returns the ColumnStats or null.
  const storage::ColumnStats* StatsFor(std::string_view qualified) const;

  std::map<std::string, Relation, std::less<>> relations_;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_COST_MODEL_H_
