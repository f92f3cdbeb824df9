// Table schemas: named, typed, optionally nullable columns.

#ifndef DRUGTREE_STORAGE_SCHEMA_H_
#define DRUGTREE_STORAGE_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
  bool nullable = true;
};

/// An ordered list of uniquely named columns.
class Schema {
 public:
  Schema() = default;

  /// Validates column-name uniqueness and non-empty names.
  static util::Result<Schema> Create(std::vector<Column> columns);

  size_t NumColumns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of a column by name, or error.
  util::Result<size_t> IndexOf(std::string_view name) const;

  /// True iff a column with this name exists.
  bool Has(const std::string& name) const;

  /// The schema of the columns at `indices`, in that order. The indices
  /// must be in range and distinct, so the names stay unique.
  Schema Select(const std::vector<size_t>& indices) const;

  /// Checks that `row` conforms: arity, per-column type (NULL allowed when
  /// nullable; Int64 is accepted where Double is declared).
  util::Status CheckRow(const Row& row) const;

  /// "name:TYPE, name:TYPE, ..." display form.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_SCHEMA_H_
