// Compressed columnar segments with direct encoded execution.
//
// A table's live rows can be snapshotted into fixed-size segments whose
// columns are stored in one of four encodings, chosen per segment-column by
// exact mini-statistics (distinct count, run structure, integer value range):
//
//   * kDictionary       — sorted distinct values + bit-packed codes. The sort
//                         order is Value::Compare's total order, so the codes
//                         are order-preserving: any comparison predicate
//                         translates to a code-range test after ONE binary
//                         search of the literal (O(log ndv) Value compares,
//                         then pure integer compares per row).
//   * kRunLength        — run values + run start offsets. Predicates are
//                         evaluated once per RUN, not once per row.
//   * kFrameOfReference — Int64 columns stored as a base plus bit-packed
//                         unsigned deltas (nulls hold delta 0 under the null
//                         bitmap).
//   * kPlain            — a ColumnVector copy; the identity fallback that
//                         keeps every segment scannable even when nothing
//                         compresses.
//
// Exactness contract: every encoded kernel (ValueAt / FilterCompare)
// produces bit-identical results to the plain column and the row-at-a-time
// path. FilterCompare implements exactly the executor's comparison
// semantics (null operands never match; otherwise CompareOp over
// Value::Compare's total order, including Int64/Double cross-type numeric
// comparison), so a scan may execute conjunctions of (column cmp literal)
// clauses directly on the encoded form without consulting the expression
// evaluator.

#ifndef DRUGTREE_STORAGE_ENCODED_SEGMENT_H_
#define DRUGTREE_STORAGE_ENCODED_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column_vector.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
  kRunLength = 2,
  kFrameOfReference = 3,
};

const char* ColumnEncodingName(ColumnEncoding e);  // "plain"/"dict"/"rle"/"for"

/// Storage-level comparison operators (the query layer translates its
/// BinaryOp comparisons into these so the dependency arrow stays
/// query -> storage).
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// True iff `cmp` (a Value::Compare result for lhs vs rhs) satisfies `op`.
inline bool CompareMatches(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

/// Fixed-width bit-packed array of unsigned values (0..64 bits each).
/// Width 0 means every element is zero and no words are stored.
class BitPackedArray {
 public:
  BitPackedArray() = default;

  /// Packs `values` at `bits` per element; every value must fit in `bits`.
  static BitPackedArray Pack(const std::vector<uint64_t>& values, int bits);

  uint64_t Get(size_t i) const {
    if (bits_ == 0) return 0;
    size_t off = i * static_cast<size_t>(bits_);
    size_t w = off >> 6;
    int shift = static_cast<int>(off & 63);
    uint64_t v = words_[w] >> shift;
    if (shift + bits_ > 64) v |= words_[w + 1] << (64 - shift);
    return v & mask_;
  }

  size_t size() const { return size_; }
  int bits() const { return bits_; }
  uint64_t ByteSize() const { return words_.size() * 8; }

  /// Bits needed to represent `max_value` (0 for 0).
  static int BitsFor(uint64_t max_value);

 private:
  int bits_ = 0;
  size_t size_ = 0;
  uint64_t mask_ = 0;
  std::vector<uint64_t> words_;
};

/// One encoded column of one segment. Immutable after Encode().
class EncodedColumn {
 public:
  EncodedColumn() = default;

  /// Encodes `src` with the cheapest eligible encoding (ChooseEncoding).
  static EncodedColumn Encode(const ColumnVector& src);

  /// Encodes `src` with a specific encoding; the caller must have checked
  /// Eligible(). Exposed for tests and benchmarks.
  static EncodedColumn EncodeWith(const ColumnVector& src, ColumnEncoding e);

  /// Whether `src` can be represented losslessly under `e`.
  static bool Eligible(const ColumnVector& src, ColumnEncoding e);

  /// The encoding the cost model would pick for `src`: the smallest
  /// estimated resident footprint among eligible encodings (ties prefer
  /// run-length, then dictionary, then frame-of-reference — the cheaper
  /// execution kernels).
  static ColumnEncoding ChooseEncoding(const ColumnVector& src);

  ColumnEncoding encoding() const { return encoding_; }
  size_t size() const { return size_; }

  bool IsNull(size_t i) const;
  /// Materializes row i (exact).
  Value ValueAt(size_t i) const;

  /// Appends to `out` the ascending local row indices where
  /// `row op literal` holds, restricted to `candidates` when non-null
  /// (ascending local indices). Exact executor comparison semantics: null
  /// rows never match and a null literal matches nothing.
  void FilterCompare(CompareOp op, const Value& literal,
                     const std::vector<uint32_t>* candidates,
                     std::vector<uint32_t>* out) const;

  /// Estimated resident bytes of the encoded form / of the plain
  /// ColumnVector it replaced (ColumnVector::ApproxBytes conventions).
  uint64_t EncodedBytes() const { return encoded_bytes_; }
  uint64_t PlainBytes() const { return plain_bytes_; }

  /// Dictionary size (kDictionary only; 0 otherwise).
  size_t DictionarySize() const { return dict_.size(); }
  /// Run count (kRunLength only; 0 otherwise).
  size_t RunCount() const { return run_values_.size(); }

 private:
  void FinishBytes(const ColumnVector& src);

  ColumnEncoding encoding_ = ColumnEncoding::kPlain;
  size_t size_ = 0;
  uint64_t encoded_bytes_ = 0;
  uint64_t plain_bytes_ = 0;

  // Null bitmap (dictionary / frame-of-reference; plain keeps its own and
  // run-length encodes nulls as null-valued runs).
  bool has_nulls_ = false;
  std::vector<uint64_t> null_words_;

  // kDictionary: distinct non-null values in Value::Compare order; codes_
  // holds each row's dictionary index (0 for null rows, masked by the
  // bitmap).
  std::vector<Value> dict_;
  BitPackedArray codes_;

  // kRunLength: runs_starts_[r] .. run_starts_[r+1]-1 hold run_values_[r];
  // run_starts_ has RunCount()+1 entries, the last one == size().
  std::vector<Value> run_values_;
  std::vector<uint32_t> run_starts_;

  // kFrameOfReference: row i = for_base_ + for_deltas_.Get(i) (non-null
  // rows; null rows store delta 0).
  int64_t for_base_ = 0;
  BitPackedArray for_deltas_;

  // kPlain.
  ColumnVector plain_;
};

/// One horizontal slice of a table: `num_rows` consecutive live rows (scan
/// order), each column independently encoded.
struct EncodedSegment {
  size_t num_rows = 0;
  std::vector<EncodedColumn> columns;
  uint64_t encoded_bytes = 0;  // sum over columns
  uint64_t plain_bytes = 0;
};

/// One (column cmp literal) clause executable directly on encoded columns.
struct EncodedPredicate {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// Appends to `matches` the ascending local row indices of `seg` satisfying
/// every clause (AND semantics). `scratch` is caller-owned scratch space so
/// tight scan loops reuse allocations. With zero clauses every row matches.
void FilterSegment(const EncodedSegment& seg,
                   const std::vector<EncodedPredicate>& clauses,
                   std::vector<uint32_t>* matches,
                   std::vector<uint32_t>* scratch);

/// An immutable encoded snapshot of a table's live rows, sliced into
/// segments of at most `segment_rows` rows in scan order. Built by
/// Table::BuildEncodedSegments(); `built_version` records the table's
/// mutation version so any later Insert/Delete invalidates the snapshot
/// (Table::encoded() returns nullptr and scans fall back to the plain
/// path — staleness can never change query results).
struct EncodedTableSnapshot {
  std::vector<EncodedSegment> segments;
  size_t num_rows = 0;
  uint64_t encoded_bytes = 0;
  uint64_t plain_bytes = 0;
  uint64_t built_version = 0;

  double CompressionRatio() const {
    return encoded_bytes > 0
               ? static_cast<double>(plain_bytes) /
                     static_cast<double>(encoded_bytes)
               : 1.0;
  }

  /// The modal encoding of column `c` across segments (kPlain when empty).
  ColumnEncoding DominantEncoding(size_t c) const;

  /// Compact per-column summary for EXPLAIN, e.g.
  /// "family=dict affinity_nm=for note=plain".
  std::string Summary(const Schema& schema) const;
};

/// Encodes `rows` (borrowed; tombstones already excluded, scan order) into
/// segments of at most `segment_rows` rows. `num_columns` fixes the arity
/// for the empty-table case.
EncodedTableSnapshot BuildEncodedTableSnapshot(
    size_t num_columns, const std::vector<const Row*>& rows,
    size_t segment_rows);

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_ENCODED_SEGMENT_H_
