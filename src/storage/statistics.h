// Table statistics for the cost-based optimizer: row counts, per-column
// min/max, distinct-value counts, null fractions, and equi-depth histograms
// for range-selectivity estimation.

#ifndef DRUGTREE_STORAGE_STATISTICS_H_
#define DRUGTREE_STORAGE_STATISTICS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

/// Statistics for one column.
class ColumnStats {
 public:
  int64_t num_rows() const { return num_rows_; }
  int64_t num_nulls() const { return num_nulls_; }
  int64_t num_distinct() const { return num_distinct_; }
  const Value& min() const { return min_; }
  const Value& max() const { return max_; }

  /// Maximal runs of equal consecutive values (nulls form runs too) over
  /// the live rows in scan order, and the implied average run length.
  /// The encoding chooser's cost model keys off these (long runs -> RLE,
  /// low distinct count -> dictionary).
  int64_t num_runs() const { return num_runs_; }
  double avg_run_length() const {
    return num_runs_ > 0
               ? static_cast<double>(num_rows_) /
                     static_cast<double>(num_runs_)
               : 0.0;
  }

  double NullFraction() const {
    return num_rows_ ? static_cast<double>(num_nulls_) /
                           static_cast<double>(num_rows_)
                     : 0.0;
  }

  /// Estimated selectivity of `col = v` in [0, 1].
  double EqualitySelectivity(const Value& v) const;

  /// Estimated selectivity of lo <= col <= hi (either bound may be NULL for
  /// unbounded) using the equi-depth histogram when the column is numeric.
  double RangeSelectivity(const Value& lo, bool lo_inclusive, const Value& hi,
                          bool hi_inclusive) const;

  /// The equi-depth histogram's bucket edges (empty unless the column is
  /// numeric with at least two non-null values).
  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  friend class StatsAccumulator;

  int64_t num_rows_ = 0;
  int64_t num_nulls_ = 0;
  int64_t num_distinct_ = 0;
  int64_t num_runs_ = 0;
  Value min_;
  Value max_;
  // Equi-depth histogram over numeric columns: boundaries_[i] is the upper
  // edge of bucket i; each bucket holds ~num_non_null/buckets rows.
  std::vector<double> boundaries_;
};

/// Statistics for a whole table, computed in one pass by Analyze().
class TableStats {
 public:
  TableStats() = default;

  /// Computes stats over `rows` (borrowed, scan order) conforming to
  /// `schema`, without copying them.
  static util::Result<TableStats> Analyze(const Schema& schema,
                                          const std::vector<const Row*>& rows);
  /// The same over owned rows.
  static util::Result<TableStats> Analyze(const Schema& schema,
                                          const std::vector<Row>& rows);

  int64_t num_rows() const { return num_rows_; }
  const ColumnStats& column(size_t i) const { return columns_[i]; }
  size_t NumColumns() const { return columns_.size(); }

 private:
  friend class StatsAccumulator;

  int64_t num_rows_ = 0;
  std::vector<ColumnStats> columns_;
};

/// The running state every TableStats figure is read off: per column the
/// distinct non-null values, the numeric values in sorted order (the
/// histogram's edges are exact ranks of them), the last value (for runs),
/// and the row and null counts, min and max. Analyze adds every row to one
/// and reads it off. A table that is appended to keeps one beside its
/// stats, so a refresh adds only the new rows instead of re-reading all.
///
/// It keeps pointers to the values of the rows it was given, so those rows
/// must stay alive and unchanged while it is used (a table drops it on
/// Delete).
class StatsAccumulator {
 public:
  explicit StatsAccumulator(const Schema& schema);

  /// Adds `rows` (borrowed, scan order) after those added before. Fails,
  /// adding nothing, when a row is narrower than the schema.
  util::Status Add(const std::vector<const Row*>& rows);

  /// False once a numeric column has held a NaN. NaN compares equal to
  /// every number, so Stats() still reads what Analyze would, but adding
  /// more rows no longer gives what Analyze would over all of them.
  bool foldable() const { return !saw_nan_; }

  /// The statistics of every row added so far.
  TableStats Stats() const;

 private:
  struct Column {
    bool numeric = false;  // declared Int64 or Double
    int64_t nulls = 0;
    int64_t runs = 0;
    const Value* last = nullptr;
    const Value* min = nullptr;
    const Value* max = nullptr;
    std::unordered_set<const Value*, ValuePtrHash, ValuePtrEq> distinct;
    std::vector<double> sorted;  // numeric values, ascending
  };

  int64_t num_rows_ = 0;
  bool saw_nan_ = false;
  std::vector<Column> columns_;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_STATISTICS_H_
