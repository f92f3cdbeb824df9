// Table statistics for the cost-based optimizer: row counts, per-column
// min/max, distinct-value counts, null fractions, and equi-depth histograms
// for range-selectivity estimation.

#ifndef DRUGTREE_STORAGE_STATISTICS_H_
#define DRUGTREE_STORAGE_STATISTICS_H_

#include <cstdint>
#include <string>
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

 private:
  friend class TableStats;

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
  /// `schema`, without copying them. `histogram_buckets` controls
  /// range-estimate resolution.
  static util::Result<TableStats> Analyze(const Schema& schema,
                                          const std::vector<const Row*>& rows,
                                          int histogram_buckets = 32);
  /// The same over owned rows.
  static util::Result<TableStats> Analyze(const Schema& schema,
                                          const std::vector<Row>& rows,
                                          int histogram_buckets = 32);

  int64_t num_rows() const { return num_rows_; }
  const ColumnStats& column(size_t i) const { return columns_[i]; }
  size_t NumColumns() const { return columns_.size(); }

 private:
  int64_t num_rows_ = 0;
  std::vector<ColumnStats> columns_;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_STATISTICS_H_
