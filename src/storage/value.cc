#include "storage/value.h"

#include <cmath>
#include <cstring>

#include "util/string_util.h"

namespace drugtree {
namespace storage {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return "BOOL";
    case ValueType::kInt64: return "INT64";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
  }
  return "?";
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0: return ValueType::kNull;
    case 1: return ValueType::kBool;
    case 2: return ValueType::kInt64;
    case 3: return ValueType::kDouble;
    case 4: return ValueType::kString;
  }
  return ValueType::kNull;
}

util::Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return util::Status::InvalidArgument(
          std::string("value is not numeric: ") + ValueTypeName(type()));
  }
}

int Value::Compare(const Value& other) const {
  ValueType ta = type(), tb = other.type();
  // NULL sorts first.
  if (ta == ValueType::kNull || tb == ValueType::kNull) {
    if (ta == tb) return 0;
    return ta == ValueType::kNull ? -1 : 1;
  }
  // Numeric cross-type comparison.
  bool num_a = ta == ValueType::kInt64 || ta == ValueType::kDouble;
  bool num_b = tb == ValueType::kInt64 || tb == ValueType::kDouble;
  if (num_a && num_b) {
    if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = ta == ValueType::kInt64 ? static_cast<double>(AsInt64())
                                       : AsDouble();
    double b = tb == ValueType::kInt64 ? static_cast<double>(other.AsInt64())
                                       : other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (ta != tb) {
    return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  }
  switch (ta) {
    case ValueType::kBool: {
      bool a = AsBool(), b = other.AsBool();
      return a == b ? 0 : (a ? 1 : -1);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
    default:
      return 0;
  }
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B97F4A7C15ULL;
    case ValueType::kBool:
      return AsBool() ? 0x517CC1B727220A95ULL : 0x2545F4914F6CDD1DULL;
    case ValueType::kInt64: {
      uint64_t x = static_cast<uint64_t>(AsInt64());
      x ^= x >> 33;
      x *= 0xFF51AFD7ED558CCDULL;
      x ^= x >> 33;
      return x;
    }
    case ValueType::kDouble: {
      double d = AsDouble();
      // Integral doubles hash like the equivalent Int64 so == and Hash agree.
      if (d == std::floor(d) && std::abs(d) < 9.0e18) {
        return Value::Int64(static_cast<int64_t>(d)).Hash();
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      bits ^= bits >> 29;
      bits *= 0xBF58476D1CE4E5B9ULL;
      return bits;
    }
    case ValueType::kString:
      return util::Fnv1a64(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return util::StringPrintf("%lld", (long long)AsInt64());
    case ValueType::kDouble:
      return util::StringPrintf("%g", AsDouble());
    case ValueType::kString: return AsString();
  }
  return "?";
}

namespace {

void AppendFixed64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}

util::Result<uint64_t> ReadFixed64(const std::string& data, size_t* offset) {
  if (*offset + 8 > data.size()) {
    return util::Status::ParseError("value decode: truncated fixed64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t(uint8_t(data[*offset + static_cast<size_t>(i)])) << (8 * i);
  }
  *offset += 8;
  return v;
}

}  // namespace

void Value::EncodeTo(std::string* out) const {
  out->push_back(char(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      out->push_back(AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      AppendFixed64(static_cast<uint64_t>(AsInt64()), out);
      break;
    case ValueType::kDouble: {
      uint64_t bits;
      double d = AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendFixed64(bits, out);
      break;
    }
    case ValueType::kString: {
      const std::string& s = AsString();
      AppendFixed64(s.size(), out);
      out->append(s);
      break;
    }
  }
}

util::Result<Value> Value::DecodeFrom(const std::string& data, size_t* offset) {
  if (*offset >= data.size()) {
    return util::Status::ParseError("value decode: missing type tag");
  }
  ValueType t = static_cast<ValueType>(data[(*offset)++]);
  switch (t) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      if (*offset >= data.size()) {
        return util::Status::ParseError("value decode: truncated bool");
      }
      return Value::Bool(data[(*offset)++] != 0);
    }
    case ValueType::kInt64: {
      DRUGTREE_ASSIGN_OR_RETURN(uint64_t v, ReadFixed64(data, offset));
      return Value::Int64(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      DRUGTREE_ASSIGN_OR_RETURN(uint64_t bits, ReadFixed64(data, offset));
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case ValueType::kString: {
      DRUGTREE_ASSIGN_OR_RETURN(uint64_t len, ReadFixed64(data, offset));
      // `*offset + len` would wrap for a length near 2^64.
      if (len > data.size() - *offset) {
        return util::Status::ParseError("value decode: truncated string");
      }
      std::string s = data.substr(*offset, len);
      *offset += len;
      return Value::String(std::move(s));
    }
    default:
      return util::Status::ParseError("value decode: bad type tag");
  }
}

void EncodeRow(const Row& row, std::string* out) {
  AppendFixed64(row.size(), out);
  for (const Value& v : row) v.EncodeTo(out);
}

util::Result<Row> DecodeRow(const std::string& data, size_t* offset) {
  DRUGTREE_ASSIGN_OR_RETURN(uint64_t count, ReadFixed64(data, offset));
  // Every value takes at least its one-byte tag, so a count beyond the bytes
  // left cannot decode; refuse it before reserving.
  if (count > 1'000'000 || count > data.size() - *offset) {
    return util::Status::ParseError("row decode: implausible column count");
  }
  Row row;
  row.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DRUGTREE_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(data, offset));
    row.push_back(std::move(v));
  }
  return row;
}

}  // namespace storage
}  // namespace drugtree
