// Typed values and rows — the tuple currency of the storage engine and the
// query executor.

#ifndef DRUGTREE_STORAGE_VALUE_H_
#define DRUGTREE_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/result.h"

namespace drugtree {
namespace storage {

/// The SQL-ish type system of the engine.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

const char* ValueTypeName(ValueType t);

/// A dynamically typed value. NULL compares less than everything and equals
/// only NULL (ordering semantics, used by indexes; SQL three-valued logic is
/// handled one level up in the expression evaluator).
class Value {
 public:
  /// Constructs NULL.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int64(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong one is a programming error (checked
  /// by assert in debug builds via std::get).
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt64() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Numeric view: Int64 and Double both convert; fails otherwise.
  util::Result<double> ToNumeric() const;

  /// Total order across values. Values of different non-null types order by
  /// type id, except Int64/Double which compare numerically.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Stable hash consistent with operator== (Int64 42 and Double 42.0 hash
  /// identically).
  uint64_t Hash() const;

  /// Display form ("NULL", "42", "3.14", "abc").
  std::string ToString() const;

  /// Binary serialization (type tag + payload) appended to `out`.
  void EncodeTo(std::string* out) const;

  /// Decodes one value from data[*offset...], advancing *offset.
  static util::Result<Value> DecodeFrom(const std::string& data, size_t* offset);

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// Hash and equality of borrowed values, as std::hash<Value> and
/// Value::operator== define them for owned ones.
struct ValuePtrHash {
  size_t operator()(const Value* v) const {
    return static_cast<size_t>(v->Hash());
  }
};
struct ValuePtrEq {
  bool operator()(const Value* a, const Value* b) const {
    return a->Compare(*b) == 0;
  }
};

/// A tuple of values.
using Row = std::vector<Value>;

/// Encodes a row (count + values).
void EncodeRow(const Row& row, std::string* out);

/// Decodes a row encoded by EncodeRow.
util::Result<Row> DecodeRow(const std::string& data, size_t* offset);

}  // namespace storage
}  // namespace drugtree

namespace std {
template <>
struct hash<drugtree::storage::Value> {
  size_t operator()(const drugtree::storage::Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};
}  // namespace std

#endif  // DRUGTREE_STORAGE_VALUE_H_
