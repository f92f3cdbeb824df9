#include "storage/column_vector.h"

#include "util/logging.h"

namespace drugtree {
namespace storage {

void ColumnVector::Clear() {
  type_ = ValueType::kNull;
  mixed_ = false;
  size_ = 0;
  null_words_.clear();
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  values_.clear();
}

void ColumnVector::Reserve(size_t n) {
  null_words_.reserve((n + 63) / 64);
  switch (type_) {
    case ValueType::kBool: bools_.reserve(n); break;
    case ValueType::kInt64: ints_.reserve(n); break;
    case ValueType::kDouble: doubles_.reserve(n); break;
    case ValueType::kString: strings_.reserve(n); break;
    case ValueType::kNull: break;
  }
  if (mixed_) values_.reserve(n);
}

void ColumnVector::Demote() {
  DT_CHECK(!mixed_);
  values_.clear();
  values_.reserve(size_ + 1);
  for (size_t i = 0; i < size_; ++i) values_.push_back(GetValue(i));
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  mixed_ = true;
}

void ColumnVector::AppendTypedPayload(const Value& v) {
  switch (type_) {
    case ValueType::kBool: bools_.push_back(v.AsBool() ? 1 : 0); break;
    case ValueType::kInt64: ints_.push_back(v.AsInt64()); break;
    case ValueType::kDouble: doubles_.push_back(v.AsDouble()); break;
    case ValueType::kString: strings_.push_back(v.AsString()); break;
    case ValueType::kNull: break;
  }
}

void ColumnVector::AppendNull() {
  EnsureNullCapacity(size_ + 1);
  SetNullBit(size_);
  if (mixed_) {
    values_.push_back(Value::Null());
  } else {
    // Placeholder payload so typed arrays stay index-aligned with rows.
    switch (type_) {
      case ValueType::kBool: bools_.push_back(0); break;
      case ValueType::kInt64: ints_.push_back(0); break;
      case ValueType::kDouble: doubles_.push_back(0.0); break;
      case ValueType::kString: strings_.emplace_back(); break;
      case ValueType::kNull: break;
    }
  }
  ++size_;
}

void ColumnVector::Append(const Value& v) {
  ValueType t = v.type();
  if (t == ValueType::kNull) {
    AppendNull();
    return;
  }
  if (mixed_) {
    EnsureNullCapacity(size_ + 1);
    values_.push_back(v);
    ++size_;
    return;
  }
  if (type_ == ValueType::kNull) {
    // First non-null value fixes the type; backfill placeholder slots for
    // any leading nulls.
    type_ = t;
    switch (type_) {
      case ValueType::kBool: bools_.assign(size_, 0); break;
      case ValueType::kInt64: ints_.assign(size_, 0); break;
      case ValueType::kDouble: doubles_.assign(size_, 0.0); break;
      case ValueType::kString: strings_.assign(size_, std::string()); break;
      case ValueType::kNull: break;
    }
  } else if (t != type_) {
    Demote();
    EnsureNullCapacity(size_ + 1);
    values_.push_back(v);
    ++size_;
    return;
  }
  EnsureNullCapacity(size_ + 1);
  AppendTypedPayload(v);
  ++size_;
}

Value ColumnVector::GetValue(size_t i) const {
  if (mixed_) return values_[i];
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kBool: return Value::Bool(bools_[i] != 0);
    case ValueType::kInt64: return Value::Int64(ints_[i]);
    case ValueType::kDouble: return Value::Double(doubles_[i]);
    case ValueType::kString: return Value::String(strings_[i]);
    case ValueType::kNull: return Value::Null();
  }
  return Value::Null();
}

uint64_t ColumnVector::ApproxBytes() const {
  uint64_t bytes = sizeof(ColumnVector) + null_words_.size() * 8;
  bytes += bools_.size();
  bytes += ints_.size() * 8;
  bytes += doubles_.size() * 8;
  for (const auto& s : strings_) bytes += sizeof(std::string) + s.size();
  for (const auto& v : values_) {
    bytes += 16;
    if (v.type() == ValueType::kString) bytes += v.AsString().size();
  }
  return bytes;
}

}  // namespace storage
}  // namespace drugtree
