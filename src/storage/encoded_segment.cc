#include "storage/encoded_segment.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace drugtree {
namespace storage {

namespace {

/// Resident-byte convention for one materialized Value (matches the mixed
/// fallback accounting in ColumnVector::ApproxBytes).
uint64_t ValueBytes(const Value& v) {
  uint64_t b = 16;
  if (v.type() == ValueType::kString) b += v.AsString().size();
  return b;
}

/// Iterates either the candidate list or the full row range, appending
/// indices that pass `pred`.
template <typename RowPred>
void EmitMatches(size_t n, const std::vector<uint32_t>* candidates,
                 std::vector<uint32_t>* out, RowPred pred) {
  if (candidates == nullptr) {
    for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) {
      if (pred(i)) out->push_back(i);
    }
  } else {
    for (uint32_t i : *candidates) {
      if (pred(i)) out->push_back(i);
    }
  }
}

/// ValueBytes of cell i of a typed (non-mixed) column, read in place.
uint64_t CellBytes(const ColumnVector& src, size_t i) {
  uint64_t b = 16;
  if (src.type() == ValueType::kString && !src.IsNull(i)) {
    b += src.StringAt(i).size();
  }
  return b;
}

/// Whether cells a and b of a typed (non-mixed) column are equal under
/// Value::Compare (a null equals only a null; -0.0 equals 0.0), read in
/// place.
bool SameCell(const ColumnVector& src, size_t a, size_t b) {
  bool null_a = src.IsNull(a), null_b = src.IsNull(b);
  if (null_a || null_b) return null_a == null_b;
  switch (src.type()) {
    case ValueType::kBool: return src.BoolAt(a) == src.BoolAt(b);
    case ValueType::kInt64: return src.Int64At(a) == src.Int64At(b);
    case ValueType::kDouble: {
      double x = src.DoubleAt(a), y = src.DoubleAt(b);
      return !(x < y) && !(y < x);
    }
    case ValueType::kString: return src.StringAt(a) == src.StringAt(b);
    case ValueType::kNull: return true;
  }
  return false;
}

}  // namespace

/// Exact per-column profile driving the encoding chooser, computed once per
/// segment column from the slice itself, so the choice never depends on
/// (possibly stale) table statistics. The same profile answers eligibility,
/// sizes the encoded form, and hands the dictionary encoder its distinct
/// values and each row's value id. A mixed column is plain-only, so only
/// its shape is profiled.
struct ColumnProfile {
  // The shape of the ColumnVector holding the cells.
  size_t rows = 0;
  ValueType type = ValueType::kNull;
  bool mixed = false;
  uint64_t plain_bytes = 0;        // its ApproxBytes()

  size_t runs = 0;
  uint64_t run_value_bytes = 0;    // Σ ValueBytes over run representatives
  size_t distinct = 0;             // non-null distinct values
  uint64_t distinct_value_bytes = 0;  // Σ ValueBytes over them
  bool has_int64 = false;
  int64_t min_i64 = 0, max_i64 = 0;
  bool has_nan = false;            // NaN breaks Compare-based dedup; bail
  /// First row of each non-null distinct value, in first-seen order, and
  /// each row's index into it (0 for null rows). Only ProfileColumn fills
  /// these, for the dictionary encoder.
  std::vector<uint32_t> first_rows;
  std::vector<uint32_t> distinct_ids;
};

namespace {

/// Fills the profile's distinct values. `key_at(i)` reads non-null cell i
/// as a key that is equal exactly when Value::Compare says the cells are.
template <typename Key, typename KeyAt>
void ProfileDistinct(const ColumnVector& src, KeyAt key_at, ColumnProfile* p) {
  std::unordered_map<Key, uint32_t> id_of;
  for (size_t i = 0; i < src.size(); ++i) {
    if (src.IsNull(i)) continue;
    auto [it, inserted] = id_of.try_emplace(
        key_at(i), static_cast<uint32_t>(p->first_rows.size()));
    if (inserted) {
      p->first_rows.push_back(static_cast<uint32_t>(i));
      p->distinct_value_bytes += CellBytes(src, i);
    }
    p->distinct_ids[i] = it->second;
  }
  p->distinct = p->first_rows.size();
}

ColumnProfile ProfileColumn(const ColumnVector& src) {
  ColumnProfile p;
  p.rows = src.size();
  p.type = src.type();
  p.mixed = src.mixed();
  p.plain_bytes = src.ApproxBytes();
  if (src.mixed()) return p;
  for (size_t i = 0; i < src.size(); ++i) {
    if (i == 0 || !SameCell(src, i - 1, i)) {
      ++p.runs;
      p.run_value_bytes += CellBytes(src, i);
    }
  }
  p.distinct_ids.assign(src.size(), 0);
  switch (src.type()) {
    case ValueType::kBool:
      ProfileDistinct<bool>(src, [&](size_t i) { return src.BoolAt(i); }, &p);
      break;
    case ValueType::kInt64:
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.IsNull(i)) continue;
        int64_t x = src.Int64At(i);
        if (!p.has_int64 || x < p.min_i64) p.min_i64 = x;
        if (!p.has_int64 || x > p.max_i64) p.max_i64 = x;
        p.has_int64 = true;
      }
      ProfileDistinct<int64_t>(src, [&](size_t i) { return src.Int64At(i); },
                               &p);
      break;
    case ValueType::kDouble:
      for (size_t i = 0; i < src.size(); ++i) {
        if (!src.IsNull(i) && std::isnan(src.DoubleAt(i))) p.has_nan = true;
      }
      ProfileDistinct<double>(
          src,
          [&](size_t i) {
            double d = src.DoubleAt(i);
            return d == 0.0 ? 0.0 : d;  // -0.0 and 0.0 are one value
          },
          &p);
      break;
    case ValueType::kString:
      ProfileDistinct<std::string_view>(
          src, [&](size_t i) { return std::string_view(src.StringAt(i)); },
          &p);
      break;
    case ValueType::kNull:
      break;
  }
  return p;
}

bool EligibleFor(const ColumnProfile& p, ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return true;
    case ColumnEncoding::kDictionary:
      return !p.mixed && !p.has_nan && p.distinct > 0;
    case ColumnEncoding::kRunLength:
      return !p.mixed && !p.has_nan;
    case ColumnEncoding::kFrameOfReference:
      return !p.mixed && p.type == ValueType::kInt64 && p.has_int64;
  }
  return false;
}

ColumnEncoding ChooseFor(const ColumnProfile& p) {
  if (p.mixed || p.rows == 0 || p.has_nan) return ColumnEncoding::kPlain;

  uint64_t plain_bytes = p.plain_bytes;
  uint64_t bitmap_bytes = (p.rows + 63) / 64 * 8;

  // Priority order doubles as the tie-break: run-length scans whole runs
  // per predicate evaluation, dictionary compares pure integer codes,
  // frame-of-reference still touches every row.
  ColumnEncoding best = ColumnEncoding::kPlain;
  uint64_t best_bytes = plain_bytes;

  uint64_t rle_bytes = 64 + p.run_value_bytes +
                       (p.runs + 1) * sizeof(uint32_t);
  if (rle_bytes < best_bytes) {
    best = ColumnEncoding::kRunLength;
    best_bytes = rle_bytes;
  }
  if (p.distinct >= 1) {
    int code_bits =
        BitPackedArray::BitsFor(static_cast<uint64_t>(p.distinct - 1));
    uint64_t dict_bytes = 64 + p.distinct_value_bytes +
                          (p.rows * static_cast<uint64_t>(code_bits)) / 8 +
                          bitmap_bytes;
    if (dict_bytes < best_bytes) {
      best = ColumnEncoding::kDictionary;
      best_bytes = dict_bytes;
    }
  }
  if (p.type == ValueType::kInt64 && p.has_int64) {
    int delta_bits = BitPackedArray::BitsFor(
        static_cast<uint64_t>(p.max_i64) - static_cast<uint64_t>(p.min_i64));
    uint64_t for_bytes = 64 +
                         (p.rows * static_cast<uint64_t>(delta_bits)) / 8 +
                         bitmap_bytes;
    if (for_bytes < best_bytes) {
      best = ColumnEncoding::kFrameOfReference;
      best_bytes = for_bytes;
    }
  }
  return best;
}

}  // namespace

const char* ColumnEncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain: return "plain";
    case ColumnEncoding::kDictionary: return "dict";
    case ColumnEncoding::kRunLength: return "rle";
    case ColumnEncoding::kFrameOfReference: return "for";
  }
  return "?";
}

// ------------------------------------------------------------ BitPackedArray

int BitPackedArray::BitsFor(uint64_t max_value) {
  int bits = 0;
  while (max_value != 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

BitPackedArray BitPackedArray::Pack(const std::vector<uint64_t>& values,
                                    int bits) {
  DT_CHECK(bits >= 0 && bits <= 64);
  BitPackedArray out;
  out.bits_ = bits;
  out.size_ = values.size();
  out.mask_ = bits == 64 ? ~uint64_t{0}
                         : ((uint64_t{1} << bits) - 1);
  if (bits == 0) return out;
  size_t total_bits = values.size() * static_cast<size_t>(bits);
  out.words_.assign((total_bits + 63) / 64 + 1, 0);  // +1: unsplit tail reads
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t v = values[i];
    DT_CHECK((v & ~out.mask_) == 0);
    size_t off = i * static_cast<size_t>(bits);
    size_t w = off >> 6;
    int shift = static_cast<int>(off & 63);
    out.words_[w] |= v << shift;
    if (shift + bits > 64) out.words_[w + 1] |= v >> (64 - shift);
  }
  return out;
}

void BitPackedArray::Append(uint64_t v) {
  DT_CHECK((v & ~mask_) == 0);
  const size_t i = size_++;
  if (bits_ == 0) return;
  // As Pack sizes it: the packed bits plus one word for unsplit tail reads.
  words_.resize((size_ * static_cast<size_t>(bits_) + 63) / 64 + 1, 0);
  size_t off = i * static_cast<size_t>(bits_);
  size_t w = off >> 6;
  int shift = static_cast<int>(off & 63);
  words_[w] |= v << shift;
  if (shift + bits_ > 64) words_[w + 1] |= v >> (64 - shift);
}

// ------------------------------------------------------------- EncodedColumn

bool EncodedColumn::Eligible(const ColumnVector& src, ColumnEncoding e) {
  return EligibleFor(ProfileColumn(src), e);
}

ColumnEncoding EncodedColumn::ChooseEncoding(const ColumnVector& src) {
  return ChooseFor(ProfileColumn(src));
}

EncodedColumn EncodedColumn::Encode(const ColumnVector& src) {
  ColumnProfile p = ProfileColumn(src);
  return EncodeProfiled(src, p, ChooseFor(p));
}

EncodedColumn EncodedColumn::EncodeWith(const ColumnVector& src,
                                        ColumnEncoding e) {
  return EncodeProfiled(src, ProfileColumn(src), e);
}

EncodedColumn EncodedColumn::EncodeProfiled(const ColumnVector& src,
                                            const ColumnProfile& p,
                                            ColumnEncoding e) {
  DT_CHECK(EligibleFor(p, e)) << "ineligible encoding";
  EncodedColumn out;
  out.encoding_ = e;
  out.size_ = src.size();

  auto build_bitmap = [&] {
    out.null_words_.assign((src.size() + 63) / 64, 0);
    for (size_t i = 0; i < src.size(); ++i) {
      if (src.IsNull(i)) {
        out.null_words_[i >> 6] |= uint64_t{1} << (i & 63);
        out.has_nulls_ = true;
      }
    }
  };

  switch (e) {
    case ColumnEncoding::kPlain:
      out.plain_ = src;
      break;

    case ColumnEncoding::kDictionary: {
      build_bitmap();
      // Sort the profiled distinct values once; a row's code is the rank of
      // its value id.
      std::vector<Value> values;
      values.reserve(p.first_rows.size());
      for (uint32_t r : p.first_rows) values.push_back(src.GetValue(r));
      std::vector<uint32_t> order(values.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return values[a].Compare(values[b]) < 0;
      });
      std::vector<uint64_t> rank(values.size());
      out.dict_.reserve(values.size());
      for (size_t d = 0; d < order.size(); ++d) {
        rank[order[d]] = d;
        out.dict_.push_back(std::move(values[order[d]]));
      }
      std::vector<uint64_t> codes(src.size(), 0);
      for (size_t i = 0; i < src.size(); ++i) {
        if (!src.IsNull(i)) codes[i] = rank[p.distinct_ids[i]];
      }
      out.codes_ = BitPackedArray::Pack(
          codes, BitPackedArray::BitsFor(out.dict_.size() - 1));
      break;
    }

    case ColumnEncoding::kRunLength: {
      out.run_values_.reserve(p.runs);
      out.run_starts_.reserve(p.runs + 1);
      for (size_t i = 0; i < src.size(); ++i) {
        if (i > 0 && SameCell(src, i - 1, i)) continue;
        out.run_values_.push_back(src.GetValue(i));
        out.run_starts_.push_back(static_cast<uint32_t>(i));
      }
      out.run_starts_.push_back(static_cast<uint32_t>(src.size()));
      break;
    }

    case ColumnEncoding::kFrameOfReference: {
      build_bitmap();
      out.for_base_ = p.min_i64;
      std::vector<uint64_t> deltas(src.size(), 0);
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.IsNull(i)) continue;
        // Two's-complement wraparound yields the exact unsigned distance
        // for any int64 pair with v >= base.
        deltas[i] = static_cast<uint64_t>(src.Int64At(i)) -
                    static_cast<uint64_t>(p.min_i64);
      }
      out.for_deltas_ = BitPackedArray::Pack(
          deltas, BitPackedArray::BitsFor(static_cast<uint64_t>(p.max_i64) -
                                          static_cast<uint64_t>(p.min_i64)));
      break;
    }
  }
  out.FinishBytes(p);
  return out;
}

void EncodedColumn::FinishBytes(const ColumnProfile& p) {
  plain_bytes_ = p.plain_bytes;
  uint64_t b = 64 + null_words_.size() * 8;  // struct overhead + bitmap
  // The dictionary holds each distinct value's first cell and the runs
  // each run's first cell, which is what the profile summed.
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      b = p.plain_bytes;  // plain_ is a copy of the profiled column
      break;
    case ColumnEncoding::kDictionary:
      b += p.distinct_value_bytes + codes_.ByteSize();
      break;
    case ColumnEncoding::kRunLength:
      b += p.run_value_bytes + run_starts_.size() * sizeof(uint32_t);
      break;
    case ColumnEncoding::kFrameOfReference:
      b += for_deltas_.ByteSize();
      break;
  }
  encoded_bytes_ = b;
}

bool EncodedColumn::Extend(const std::vector<const Value*>& rows, size_t c,
                           const ColumnProfile& p) {
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      for (size_t i = size_; i < rows.size(); ++i) plain_.Append(rows[i][c]);
      break;
    case ColumnEncoding::kRunLength:
      // run_starts_ ends with size_: extend the last run, or let that
      // entry start a new one.
      for (size_t i = size_; i < rows.size(); ++i) {
        const Value& v = rows[i][c];
        if (run_values_.back().Compare(v) == 0) {
          run_starts_.back() = static_cast<uint32_t>(i + 1);
        } else {
          run_values_.push_back(v);
          run_starts_.push_back(static_cast<uint32_t>(i + 1));
        }
      }
      break;
    case ColumnEncoding::kDictionary:
      ExtendNullBitmap(rows, c);
      ExtendDictionary(rows, c);
      break;
    case ColumnEncoding::kFrameOfReference: {
      if (p.min_i64 != for_base_ ||
          BitPackedArray::BitsFor(static_cast<uint64_t>(p.max_i64) -
                                  static_cast<uint64_t>(p.min_i64)) !=
              for_deltas_.bits()) {
        return false;
      }
      ExtendNullBitmap(rows, c);
      for (size_t i = size_; i < rows.size(); ++i) {
        const Value& v = rows[i][c];
        for_deltas_.Append(v.is_null() ? 0
                                        : static_cast<uint64_t>(v.AsInt64()) -
                                              static_cast<uint64_t>(for_base_));
      }
      break;
    }
  }
  size_ = rows.size();
  FinishBytes(p);
  return true;
}

void EncodedColumn::ExtendNullBitmap(const std::vector<const Value*>& rows,
                                     size_t c) {
  null_words_.resize((rows.size() + 63) / 64, 0);
  for (size_t i = size_; i < rows.size(); ++i) {
    if (rows[i][c].is_null()) {
      null_words_[i >> 6] |= uint64_t{1} << (i & 63);
      has_nulls_ = true;
    }
  }
}

void EncodedColumn::ExtendDictionary(const std::vector<const Value*>& rows,
                                     size_t c) {
  auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
  auto rank = [&](const Value& v) {
    return static_cast<uint64_t>(
        std::lower_bound(dict_.begin(), dict_.end(), v, less) - dict_.begin());
  };
  // Values the dictionary lacks. A dictionary keeps the first cell of each
  // value, so of equal new cells the first one stays.
  std::vector<Value> fresh;
  for (size_t i = size_; i < rows.size(); ++i) {
    const Value& v = rows[i][c];
    if (!v.is_null() &&
        !std::binary_search(dict_.begin(), dict_.end(), v, less)) {
      fresh.push_back(v);
    }
  }
  if (fresh.empty()) {
    for (size_t i = size_; i < rows.size(); ++i) {
      const Value& v = rows[i][c];
      codes_.Append(v.is_null() ? 0 : rank(v));
    }
    return;
  }
  std::stable_sort(fresh.begin(), fresh.end(), less);
  fresh.erase(std::unique(fresh.begin(), fresh.end(),
                          [](const Value& a, const Value& b) {
                            return a.Compare(b) == 0;
                          }),
              fresh.end());
  // Insert the new values at their ranks; old code d moves up by the
  // number of new values ranked below it.
  std::vector<uint64_t> moved(dict_.size());
  std::vector<Value> merged;
  merged.reserve(dict_.size() + fresh.size());
  size_t f = 0;
  for (size_t d = 0; d < dict_.size(); ++d) {
    while (f < fresh.size() && less(fresh[f], dict_[d])) {
      merged.push_back(std::move(fresh[f++]));
    }
    moved[d] = merged.size();
    merged.push_back(std::move(dict_[d]));
  }
  while (f < fresh.size()) merged.push_back(std::move(fresh[f++]));
  dict_ = std::move(merged);
  // Re-pack every code, at the width the larger dictionary needs; null
  // rows keep code 0.
  std::vector<uint64_t> codes(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i < size_) {
      if (((null_words_[i >> 6] >> (i & 63)) & 1) == 0) {
        codes[i] = moved[codes_.Get(i)];
      }
    } else if (!rows[i][c].is_null()) {
      codes[i] = rank(rows[i][c]);
    }
  }
  codes_ = BitPackedArray::Pack(codes,
                                BitPackedArray::BitsFor(dict_.size() - 1));
}

bool EncodedColumn::IsNull(size_t i) const {
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      return plain_.IsNull(i);
    case ColumnEncoding::kRunLength: {
      size_t r = static_cast<size_t>(
          std::upper_bound(run_starts_.begin(), run_starts_.end(),
                           static_cast<uint32_t>(i)) -
          run_starts_.begin()) - 1;
      return run_values_[r].is_null();
    }
    default:
      return has_nulls_ &&
             ((null_words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
}

Value EncodedColumn::ValueAt(size_t i) const {
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      return plain_.GetValue(i);
    case ColumnEncoding::kDictionary:
      if (IsNull(i)) return Value::Null();
      return dict_[codes_.Get(i)];
    case ColumnEncoding::kRunLength: {
      size_t r = static_cast<size_t>(
          std::upper_bound(run_starts_.begin(), run_starts_.end(),
                           static_cast<uint32_t>(i)) -
          run_starts_.begin()) - 1;
      return run_values_[r];
    }
    case ColumnEncoding::kFrameOfReference:
      if (IsNull(i)) return Value::Null();
      return Value::Int64(ForValue(i));
  }
  return Value::Null();
}

void EncodedColumn::FilterCompare(CompareOp op, const Value& literal,
                                  const std::vector<uint32_t>* candidates,
                                  std::vector<uint32_t>* out) const {
  if (literal.is_null()) return;  // NULL literal: three-valued logic -> false

  switch (encoding_) {
    case ColumnEncoding::kDictionary: {
      // Translate the literal once: with the dictionary sorted in
      // Value::Compare order, every comparison becomes a code-range test.
      size_t ndv = dict_.size();
      size_t lower = static_cast<size_t>(
          std::lower_bound(dict_.begin(), dict_.end(), literal,
                           [](const Value& a, const Value& b) {
                             return a.Compare(b) < 0;
                           }) -
          dict_.begin());
      size_t upper = static_cast<size_t>(
          std::upper_bound(dict_.begin(), dict_.end(), literal,
                           [](const Value& a, const Value& b) {
                             return a.Compare(b) < 0;
                           }) -
          dict_.begin());
      uint64_t lo1 = 0, hi1 = 0, lo2 = 0, hi2 = 0;
      switch (op) {
        case CompareOp::kEq: lo1 = lower; hi1 = upper; break;
        case CompareOp::kNe: lo1 = 0; hi1 = lower; lo2 = upper; hi2 = ndv;
          break;
        case CompareOp::kLt: lo1 = 0; hi1 = lower; break;
        case CompareOp::kLe: lo1 = 0; hi1 = upper; break;
        case CompareOp::kGt: lo1 = upper; hi1 = ndv; break;
        case CompareOp::kGe: lo1 = lower; hi1 = ndv; break;
      }
      if (lo1 >= hi1 && lo2 >= hi2) return;
      EmitMatches(size_, candidates, out, [&](uint32_t i) {
        if (has_nulls_ && ((null_words_[i >> 6] >> (i & 63)) & 1)) {
          return false;
        }
        uint64_t c = codes_.Get(i);
        return (c >= lo1 && c < hi1) || (c >= lo2 && c < hi2);
      });
      return;
    }

    case ColumnEncoding::kRunLength: {
      // One Value comparison per run; whole runs are emitted or skipped.
      auto run_matches = [&](size_t r) {
        const Value& v = run_values_[r];
        return !v.is_null() && CompareMatches(op, v.Compare(literal));
      };
      if (candidates == nullptr) {
        for (size_t r = 0; r + 1 < run_starts_.size(); ++r) {
          if (!run_matches(r)) continue;
          for (uint32_t i = run_starts_[r]; i < run_starts_[r + 1]; ++i) {
            out->push_back(i);
          }
        }
      } else {
        size_t r = 0;
        bool cached = false, ok = false;
        for (uint32_t i : *candidates) {
          while (i >= run_starts_[r + 1]) {
            ++r;
            cached = false;
          }
          if (!cached) {
            ok = run_matches(r);
            cached = true;
          }
          if (ok) out->push_back(i);
        }
      }
      return;
    }

    case ColumnEncoding::kFrameOfReference: {
      auto not_null = [&](uint32_t i) {
        return !has_nulls_ || ((null_words_[i >> 6] >> (i & 63)) & 1) == 0;
      };
      if (literal.type() == ValueType::kInt64) {
        int64_t lit = literal.AsInt64();
        EmitMatches(size_, candidates, out, [&](uint32_t i) {
          if (!not_null(i)) return false;
          int64_t v = ForValue(i);
          return CompareMatches(op, v < lit ? -1 : (v > lit ? 1 : 0));
        });
      } else if (literal.type() == ValueType::kDouble) {
        double lit = literal.AsDouble();
        EmitMatches(size_, candidates, out, [&](uint32_t i) {
          if (!not_null(i)) return false;
          double v = static_cast<double>(ForValue(i));
          return CompareMatches(op, v < lit ? -1 : (v > lit ? 1 : 0));
        });
      } else {
        // Non-numeric literal vs Int64 orders by type id (constant result).
        int cmp = literal.type() == ValueType::kBool ? 1 : -1;
        if (!CompareMatches(op, cmp)) return;
        EmitMatches(size_, candidates, out, not_null);
      }
      return;
    }

    case ColumnEncoding::kPlain: {
      if (!plain_.mixed()) {
        if (plain_.type() == ValueType::kInt64 &&
            literal.type() == ValueType::kInt64) {
          int64_t lit = literal.AsInt64();
          EmitMatches(size_, candidates, out, [&](uint32_t i) {
            if (plain_.IsNull(i)) return false;
            int64_t v = plain_.Int64At(i);
            return CompareMatches(op, v < lit ? -1 : (v > lit ? 1 : 0));
          });
          return;
        }
        if (plain_.type() == ValueType::kString &&
            literal.type() == ValueType::kString) {
          const std::string& lit = literal.AsString();
          EmitMatches(size_, candidates, out, [&](uint32_t i) {
            if (plain_.IsNull(i)) return false;
            int c = plain_.StringAt(i).compare(lit);
            return CompareMatches(op, c < 0 ? -1 : (c > 0 ? 1 : 0));
          });
          return;
        }
        if (plain_.type() == ValueType::kDouble &&
            (literal.type() == ValueType::kDouble ||
             literal.type() == ValueType::kInt64)) {
          double lit = literal.type() == ValueType::kInt64
                           ? static_cast<double>(literal.AsInt64())
                           : literal.AsDouble();
          EmitMatches(size_, candidates, out, [&](uint32_t i) {
            if (plain_.IsNull(i)) return false;
            double v = plain_.DoubleAt(i);
            return CompareMatches(op, v < lit ? -1 : (v > lit ? 1 : 0));
          });
          return;
        }
      }
      EmitMatches(size_, candidates, out, [&](uint32_t i) {
        Value v = plain_.GetValue(i);
        return !v.is_null() && CompareMatches(op, v.Compare(literal));
      });
      return;
    }
  }
}

// ------------------------------------------------------------ FilterSegment

void FilterSegment(const EncodedSegment& seg,
                   const std::vector<EncodedPredicate>& clauses,
                   std::vector<uint32_t>* matches,
                   std::vector<uint32_t>* scratch) {
  if (clauses.empty()) {
    matches->resize(seg.num_rows);
    for (size_t i = 0; i < seg.num_rows; ++i) {
      (*matches)[i] = static_cast<uint32_t>(i);
    }
    return;
  }
  matches->clear();
  seg.columns[clauses[0].column].FilterCompare(
      clauses[0].op, clauses[0].literal, /*candidates=*/nullptr, matches);
  for (size_t k = 1; k < clauses.size() && !matches->empty(); ++k) {
    scratch->clear();
    seg.columns[clauses[k].column].FilterCompare(
        clauses[k].op, clauses[k].literal, matches, scratch);
    matches->swap(*scratch);
  }
}

// ----------------------------------------------------- EncodedTableSnapshot

ColumnEncoding EncodedTableSnapshot::DominantEncoding(size_t c) const {
  int counts[4] = {0, 0, 0, 0};
  for (const EncodedSegment& seg : segments) {
    if (c < seg.columns.size()) {
      ++counts[static_cast<size_t>(seg.columns[c].encoding())];
    }
  }
  int best = 0;
  for (int e = 1; e < 4; ++e) {
    if (counts[e] > counts[best]) best = e;
  }
  return static_cast<ColumnEncoding>(best);
}

std::string EncodedTableSnapshot::Summary(const Schema& schema) const {
  std::string out;
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (!out.empty()) out += " ";
    out += schema.column(c).name;
    out += "=";
    out += ColumnEncodingName(DominantEncoding(c));
  }
  return out;
}

namespace {

/// Encodes column `c` of `rows` (each row's values, scan order), with `col`
/// as scratch.
EncodedColumn EncodeColumnOf(const std::vector<const Value*>& rows, size_t c,
                             ColumnVector* col) {
  // The first non-null cell fixes the column's type.
  ValueType type = ValueType::kNull;
  for (size_t r = 0; r < rows.size() && type == ValueType::kNull; ++r) {
    type = rows[r][c].type();
  }
  col->Clear();
  col->Reserve(rows.size(), type);
  for (const Value* row : rows) col->Append(row[c]);
  return EncodedColumn::Encode(*col);
}

/// One segment of `rows` (each row's values, scan order).
EncodedSegment EncodeSegment(const std::vector<const Value*>& rows,
                             size_t num_columns) {
  EncodedSegment seg;
  seg.num_rows = rows.size();
  seg.columns.reserve(num_columns);
  ColumnVector col;
  for (size_t c = 0; c < num_columns; ++c) {
    seg.columns.push_back(EncodeColumnOf(rows, c, &col));
    seg.encoded_bytes += seg.columns.back().EncodedBytes();
    seg.plain_bytes += seg.columns.back().PlainBytes();
  }
  return seg;
}

/// The values of rows [begin, end).
std::vector<const Value*> RowValues(const std::vector<const Row*>& rows,
                                    size_t begin, size_t end) {
  std::vector<const Value*> out;
  out.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) out.push_back(rows[r]->data());
  return out;
}

}  // namespace

EncodedTableSnapshot BuildEncodedTableSnapshot(
    size_t num_columns, const std::vector<const Row*>& rows,
    size_t segment_rows) {
  DT_CHECK(segment_rows > 0);
  EncodedTableSnapshot snap;
  snap.segment_rows = segment_rows;
  snap.num_rows = rows.size();
  for (size_t begin = 0; begin < rows.size(); begin += segment_rows) {
    size_t end = std::min(rows.size(), begin + segment_rows);
    EncodedSegment seg = EncodeSegment(RowValues(rows, begin, end),
                                       num_columns);
    snap.encoded_bytes += seg.encoded_bytes;
    snap.plain_bytes += seg.plain_bytes;
    snap.segments.push_back(std::move(seg));
  }
  return snap;
}

// --------------------------------------------------------- SnapshotAppender

/// One column of the open segment: the figures ProfileColumn would compute
/// over its cells (without the dictionary encoder's row lists), kept
/// current cell by cell.
struct SnapshotAppender::OpenColumn {
  ColumnProfile profile;
  uint64_t string_bytes = 0;  // for profile.plain_bytes
  const Value* last = nullptr;
  std::unordered_set<const Value*, ValuePtrHash, ValuePtrEq> distinct;

  /// Adds the cells of column `c` in rows [from, rows.size()).
  void Add(const std::vector<const Value*>& rows, size_t c, size_t from);
};

void SnapshotAppender::OpenColumn::Add(const std::vector<const Value*>& rows,
                                       size_t c, size_t from) {
  ColumnProfile& p = profile;
  for (size_t r = from; r < rows.size(); ++r) {
    const Value& v = rows[r][c];
    ++p.rows;
    // ColumnVector::Append: the first non-null cell types the column, a
    // later one of another type makes it mixed, and a mixed column is
    // profiled no further (it is plain-only).
    if (!v.is_null()) {
      if (v.type() == ValueType::kString) string_bytes += v.AsString().size();
      if (p.type == ValueType::kNull) {
        p.type = v.type();
      } else if (v.type() != p.type) {
        p.mixed = true;
      }
    }
    if (p.mixed) continue;
    // Within one type, Compare equality is ProfileColumn's cell equality.
    if (last == nullptr || last->Compare(v) != 0) {
      ++p.runs;
      p.run_value_bytes += ValueBytes(v);
    }
    last = &v;
    if (v.is_null()) continue;
    if (distinct.insert(&v).second) {
      ++p.distinct;
      p.distinct_value_bytes += ValueBytes(v);
    }
    if (v.type() == ValueType::kInt64) {
      int64_t x = v.AsInt64();
      if (!p.has_int64 || x < p.min_i64) p.min_i64 = x;
      if (!p.has_int64 || x > p.max_i64) p.max_i64 = x;
      p.has_int64 = true;
    } else if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
      p.has_nan = true;
    }
  }
  p.plain_bytes =
      ColumnVector::ApproxBytesOf(p.rows, p.type, p.mixed, string_bytes);
}

SnapshotAppender::SnapshotAppender(const EncodedTableSnapshot& snap,
                                   const std::vector<const Row*>& last_rows) {
  if (snap.segments.empty() ||
      snap.segments.back().num_rows >= snap.segment_rows) {
    return;
  }
  const EncodedSegment& last = snap.segments.back();
  DT_CHECK(last_rows.size() == last.num_rows);
  Open(RowValues(last_rows, 0, last_rows.size()), last.columns.size());
}

SnapshotAppender::~SnapshotAppender() = default;

void SnapshotAppender::Open(std::vector<const Value*> rows,
                            size_t num_columns) {
  open_rows_ = std::move(rows);
  columns_.clear();
  columns_.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) columns_[c].Add(open_rows_, c, 0);
}

void SnapshotAppender::Append(EncodedTableSnapshot* snap,
                              const std::vector<const Row*>& rows) {
  size_t next = 0;
  if (!open_rows_.empty()) {
    EncodedSegment& seg = snap->segments.back();
    DT_CHECK(seg.num_rows == open_rows_.size());
    next = std::min(rows.size(), snap->segment_rows - open_rows_.size());
    const size_t from = open_rows_.size();
    for (size_t r = 0; r < next; ++r) open_rows_.push_back(rows[r]->data());
    snap->encoded_bytes -= seg.encoded_bytes;
    snap->plain_bytes -= seg.plain_bytes;
    seg.encoded_bytes = 0;
    seg.plain_bytes = 0;
    for (size_t c = 0; c < seg.columns.size(); ++c) {
      OpenColumn& open = columns_[c];
      open.Add(open_rows_, c, from);
      EncodedColumn& col = seg.columns[c];
      if (ChooseFor(open.profile) != col.encoding() ||
          !col.Extend(open_rows_, c, open.profile)) {
        ColumnVector scratch;
        col = EncodeColumnOf(open_rows_, c, &scratch);
      }
      seg.encoded_bytes += col.EncodedBytes();
      seg.plain_bytes += col.PlainBytes();
    }
    seg.num_rows = open_rows_.size();
    snap->encoded_bytes += seg.encoded_bytes;
    snap->plain_bytes += seg.plain_bytes;
    if (open_rows_.size() == snap->segment_rows) {  // sealed
      open_rows_.clear();
      columns_.clear();
    }
  }
  while (next < rows.size()) {
    const size_t end = std::min(rows.size(), next + snap->segment_rows);
    std::vector<const Value*> seg_rows = RowValues(rows, next, end);
    const size_t num_columns = rows[next]->size();
    EncodedSegment seg = EncodeSegment(seg_rows, num_columns);
    snap->encoded_bytes += seg.encoded_bytes;
    snap->plain_bytes += seg.plain_bytes;
    snap->segments.push_back(std::move(seg));
    if (seg_rows.size() < snap->segment_rows) {
      Open(std::move(seg_rows), num_columns);
    }
    next = end;
  }
  snap->num_rows += rows.size();
}

}  // namespace storage
}  // namespace drugtree
