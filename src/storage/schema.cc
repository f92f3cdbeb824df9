#include "storage/schema.h"

#include "util/string_util.h"

namespace drugtree {
namespace storage {

util::Result<Schema> Schema::Create(std::vector<Column> columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& c = columns[i];
    if (c.name.empty()) {
      return util::Status::InvalidArgument("column name must not be empty");
    }
    if (c.type == ValueType::kNull) {
      return util::Status::InvalidArgument("column '" + c.name +
                                           "' cannot have type NULL");
    }
    // Schemas are a few dozen columns wide: comparing against the earlier
    // names beats building a hash set per call.
    for (size_t j = 0; j < i; ++j) {
      if (columns[j].name == c.name) {
        return util::Status::InvalidArgument("duplicate column name: " +
                                             c.name);
      }
    }
  }
  Schema s;
  s.columns_ = std::move(columns);
  return s;
}

util::Result<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return util::Status::NotFound("no such column: " + std::string(name));
}

bool Schema::Has(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

Schema Schema::Select(const std::vector<size_t>& indices) const {
  Schema s;
  s.columns_.reserve(indices.size());
  for (size_t i : indices) s.columns_.push_back(columns_[i]);
  return s;
}

util::Status Schema::CheckRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "row has %zu values but schema has %zu columns", row.size(),
        columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return util::Status::InvalidArgument("NULL in non-nullable column '" +
                                             col.name + "'");
      }
      continue;
    }
    if (v.type() == col.type) continue;
    if (col.type == ValueType::kDouble && v.type() == ValueType::kInt64) {
      continue;  // implicit widening
    }
    return util::Status::InvalidArgument(util::StringPrintf(
        "column '%s' expects %s but row has %s", col.name.c_str(),
        ValueTypeName(col.type), ValueTypeName(v.type())));
  }
  return util::Status::OK();
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i) out += ", ";
    out += columns_[i].name;
    out += ':';
    out += ValueTypeName(columns_[i].type);
  }
  return out;
}

}  // namespace storage
}  // namespace drugtree
