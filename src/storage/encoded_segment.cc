#include "storage/encoded_segment.h"

#include <algorithm>
#include <cmath>
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

/// Exact per-column profile driving the encoding chooser. One pass over the
/// segment slice, so the choice never depends on (possibly stale) table
/// statistics — TableStats only informs segment sizing upstream.
struct ColumnProfile {
  size_t rows = 0;
  size_t nulls = 0;
  size_t runs = 0;
  uint64_t run_value_bytes = 0;    // Σ ValueBytes over run representatives
  uint64_t distinct_value_bytes = 0;
  size_t distinct = 0;             // non-null distinct values
  bool has_int64 = false;
  int64_t min_i64 = 0, max_i64 = 0;
  bool has_nan = false;            // NaN breaks Compare-based dedup; bail
};

ColumnProfile ProfileColumn(const ColumnVector& src) {
  ColumnProfile p;
  p.rows = src.size();
  std::unordered_set<Value> distinct;
  Value prev;
  bool have_prev = false;
  for (size_t i = 0; i < src.size(); ++i) {
    Value v = src.GetValue(i);
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
      p.has_nan = true;
    }
    if (v.is_null()) {
      ++p.nulls;
    } else {
      if (distinct.insert(v).second) p.distinct_value_bytes += ValueBytes(v);
      if (v.type() == ValueType::kInt64) {
        int64_t x = v.AsInt64();
        if (!p.has_int64 || x < p.min_i64) p.min_i64 = x;
        if (!p.has_int64 || x > p.max_i64) p.max_i64 = x;
        p.has_int64 = true;
      }
    }
    if (!have_prev || prev.Compare(v) != 0) {
      ++p.runs;
      p.run_value_bytes += ValueBytes(v);
      prev = std::move(v);
      have_prev = true;
    }
  }
  p.distinct = distinct.size();
  return p;
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

// ------------------------------------------------------------- EncodedColumn

bool EncodedColumn::Eligible(const ColumnVector& src, ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return true;
    case ColumnEncoding::kDictionary: {
      if (src.mixed()) return false;
      ColumnProfile p = ProfileColumn(src);
      return !p.has_nan && p.distinct >= 1;
    }
    case ColumnEncoding::kRunLength: {
      if (src.mixed()) return false;
      return !ProfileColumn(src).has_nan;
    }
    case ColumnEncoding::kFrameOfReference:
      return !src.mixed() && src.type() == ValueType::kInt64 &&
             ProfileColumn(src).has_int64;
  }
  return false;
}

ColumnEncoding EncodedColumn::ChooseEncoding(const ColumnVector& src) {
  if (src.mixed() || src.empty()) return ColumnEncoding::kPlain;
  ColumnProfile p = ProfileColumn(src);
  if (p.has_nan) return ColumnEncoding::kPlain;

  uint64_t plain_bytes = src.ApproxBytes();
  uint64_t bitmap_bytes = (src.size() + 63) / 64 * 8;

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
                          (src.size() * static_cast<uint64_t>(code_bits)) / 8 +
                          bitmap_bytes;
    if (dict_bytes < best_bytes) {
      best = ColumnEncoding::kDictionary;
      best_bytes = dict_bytes;
    }
  }
  if (src.type() == ValueType::kInt64 && p.has_int64) {
    int delta_bits = BitPackedArray::BitsFor(
        static_cast<uint64_t>(p.max_i64) - static_cast<uint64_t>(p.min_i64));
    uint64_t for_bytes = 64 +
                         (src.size() * static_cast<uint64_t>(delta_bits)) / 8 +
                         bitmap_bytes;
    if (for_bytes < best_bytes) {
      best = ColumnEncoding::kFrameOfReference;
      best_bytes = for_bytes;
    }
  }
  return best;
}

EncodedColumn EncodedColumn::Encode(const ColumnVector& src) {
  return EncodeWith(src, ChooseEncoding(src));
}

EncodedColumn EncodedColumn::EncodeWith(const ColumnVector& src,
                                        ColumnEncoding e) {
  DT_CHECK(Eligible(src, e)) << "ineligible encoding";
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
      std::unordered_set<Value> distinct;
      for (size_t i = 0; i < src.size(); ++i) {
        if (!src.IsNull(i)) distinct.insert(src.GetValue(i));
      }
      out.dict_.assign(distinct.begin(), distinct.end());
      std::sort(out.dict_.begin(), out.dict_.end(),
                [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
      std::unordered_map<Value, uint64_t> code_of;
      code_of.reserve(out.dict_.size());
      for (size_t d = 0; d < out.dict_.size(); ++d) code_of[out.dict_[d]] = d;
      std::vector<uint64_t> codes(src.size(), 0);
      for (size_t i = 0; i < src.size(); ++i) {
        if (!src.IsNull(i)) codes[i] = code_of[src.GetValue(i)];
      }
      int bits = BitPackedArray::BitsFor(
          out.dict_.empty() ? 0 : out.dict_.size() - 1);
      out.codes_ = BitPackedArray::Pack(codes, bits);
      break;
    }

    case ColumnEncoding::kRunLength: {
      for (size_t i = 0; i < src.size(); ++i) {
        Value v = src.GetValue(i);
        if (out.run_values_.empty() ||
            out.run_values_.back().Compare(v) != 0) {
          out.run_values_.push_back(std::move(v));
          out.run_starts_.push_back(static_cast<uint32_t>(i));
        }
      }
      out.run_starts_.push_back(static_cast<uint32_t>(src.size()));
      break;
    }

    case ColumnEncoding::kFrameOfReference: {
      build_bitmap();
      int64_t base = 0;
      bool have_base = false;
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.IsNull(i)) continue;
        int64_t v = src.Int64At(i);
        if (!have_base || v < base) base = v;
        have_base = true;
      }
      out.for_base_ = base;
      std::vector<uint64_t> deltas(src.size(), 0);
      uint64_t max_delta = 0;
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.IsNull(i)) continue;
        // Two's-complement wraparound yields the exact unsigned distance
        // for any int64 pair with v >= base.
        uint64_t d = static_cast<uint64_t>(src.Int64At(i)) -
                     static_cast<uint64_t>(base);
        deltas[i] = d;
        if (d > max_delta) max_delta = d;
      }
      out.for_deltas_ =
          BitPackedArray::Pack(deltas, BitPackedArray::BitsFor(max_delta));
      break;
    }
  }
  out.FinishBytes(src);
  return out;
}

void EncodedColumn::FinishBytes(const ColumnVector& src) {
  plain_bytes_ = src.ApproxBytes();
  uint64_t b = 64 + null_words_.size() * 8;  // struct overhead + bitmap
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      b = plain_.ApproxBytes();
      break;
    case ColumnEncoding::kDictionary:
      for (const Value& v : dict_) b += ValueBytes(v);
      b += codes_.ByteSize();
      break;
    case ColumnEncoding::kRunLength:
      for (const Value& v : run_values_) b += ValueBytes(v);
      b += run_starts_.size() * sizeof(uint32_t);
      break;
    case ColumnEncoding::kFrameOfReference:
      b += for_deltas_.ByteSize();
      break;
  }
  encoded_bytes_ = b;
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
      return Value::Int64(for_base_ +
                          static_cast<int64_t>(for_deltas_.Get(i)));
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
          int64_t v = for_base_ + static_cast<int64_t>(for_deltas_.Get(i));
          return CompareMatches(op, v < lit ? -1 : (v > lit ? 1 : 0));
        });
      } else if (literal.type() == ValueType::kDouble) {
        double lit = literal.AsDouble();
        EmitMatches(size_, candidates, out, [&](uint32_t i) {
          if (!not_null(i)) return false;
          double v = static_cast<double>(
              for_base_ + static_cast<int64_t>(for_deltas_.Get(i)));
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

EncodedTableSnapshot BuildEncodedTableSnapshot(
    size_t num_columns, const std::vector<const Row*>& rows,
    size_t segment_rows) {
  DT_CHECK(segment_rows > 0);
  EncodedTableSnapshot snap;
  snap.num_rows = rows.size();
  for (size_t begin = 0; begin < rows.size(); begin += segment_rows) {
    size_t end = std::min(rows.size(), begin + segment_rows);
    EncodedSegment seg;
    seg.num_rows = end - begin;
    seg.columns.reserve(num_columns);
    ColumnVector col;
    for (size_t c = 0; c < num_columns; ++c) {
      col.Clear();
      col.Reserve(seg.num_rows);
      for (size_t r = begin; r < end; ++r) col.Append((*rows[r])[c]);
      seg.columns.push_back(EncodedColumn::Encode(col));
      seg.encoded_bytes += seg.columns.back().EncodedBytes();
      seg.plain_bytes += seg.columns.back().PlainBytes();
    }
    snap.encoded_bytes += seg.encoded_bytes;
    snap.plain_bytes += seg.plain_bytes;
    snap.segments.push_back(std::move(seg));
  }
  return snap;
}

}  // namespace storage
}  // namespace drugtree
