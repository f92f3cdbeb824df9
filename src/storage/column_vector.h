// ColumnVector: one typed column with a null bitmap — the plain payload
// of an encoded segment column and the input the encoder profiles. A
// column round-trips every Value bit-identically, including the
// Int64-vs-Double distinction per cell.
//
// Layout rules:
//  - A ColumnVector starts untyped (kNull). The first non-null append fixes
//    its type; appending a differently typed value afterwards demotes the
//    column to a "mixed" representation (std::vector<Value>) that is always
//    correct but skips the typed fast paths. Table columns are homogeneous
//    in practice, so mixed columns only appear for columns that genuinely
//    mix types.
//  - Nulls are tracked in a word-packed bitmap regardless of representation;
//    typed payload slots for null rows hold zero values.

#ifndef DRUGTREE_STORAGE_COLUMN_VECTOR_H_
#define DRUGTREE_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"

namespace drugtree {
namespace storage {

class ColumnVector {
 public:
  ColumnVector() = default;

  /// Declared element type. kNull until the first non-null append (or for
  /// an all-null column); meaningless when mixed().
  ValueType type() const { return type_; }
  /// True once the column holds values of more than one non-null type.
  bool mixed() const { return mixed_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear();
  void Reserve(size_t n);

  /// Generic append; dispatches on the value's runtime type.
  void Append(const Value& v);
  void AppendNull();

  bool IsNull(size_t i) const {
    return (null_words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Typed accessors; only valid for non-null rows of a non-mixed column of
  /// the matching type.
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  /// Materializes row i as a Value (exact, any representation).
  Value GetValue(size_t i) const;

  /// Estimated resident bytes of this column (payload + null bitmap).
  /// Typed numeric columns are O(1); string/mixed columns walk their
  /// payloads — only call on accounting paths (a memory tracker is
  /// installed), never per cell.
  uint64_t ApproxBytes() const;

 private:
  void SetNullBit(size_t i) {
    null_words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void EnsureNullCapacity(size_t n) {
    size_t words = (n + 63) / 64;
    if (null_words_.size() < words) null_words_.resize(words, 0);
  }
  /// Migrates the typed representation to the mixed fallback.
  void Demote();
  /// Appends a payload slot for row `size_` in the current representation.
  void AppendTypedPayload(const Value& v);

  ValueType type_ = ValueType::kNull;
  bool mixed_ = false;
  size_t size_ = 0;
  std::vector<uint64_t> null_words_;  // bit i set => row i is NULL

  // Exactly one of these is populated, per type_ / mixed_.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> values_;  // mixed fallback
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_COLUMN_VECTOR_H_
