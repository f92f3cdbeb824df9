#include "storage/encoded_segment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "storage/statistics.h"
#include "storage/table.h"
#include "util/rng.h"

namespace drugtree {
namespace storage {
namespace {

// ------------------------------------------------------------ shared helpers

/// All encodings a column could conceivably be asked to carry.
const ColumnEncoding kAllEncodings[] = {
    ColumnEncoding::kPlain, ColumnEncoding::kDictionary,
    ColumnEncoding::kRunLength, ColumnEncoding::kFrameOfReference};

/// Round-trip check: encode `src` under every eligible encoding and verify
/// ValueAt reproduces the source bit-exactly (type tag AND payload, via
/// Value::operator==).
void ExpectRoundTrip(const ColumnVector& src) {
  for (ColumnEncoding e : kAllEncodings) {
    if (!EncodedColumn::Eligible(src, e)) continue;
    SCOPED_TRACE(std::string("encoding=") + ColumnEncodingName(e));
    EncodedColumn enc = EncodedColumn::EncodeWith(src, e);
    ASSERT_EQ(enc.size(), src.size());
    // Per-row materialization.
    for (size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(enc.IsNull(i), src.IsNull(i)) << "row " << i;
      EXPECT_EQ(enc.ValueAt(i), src.GetValue(i)) << "row " << i;
    }
  }
}

/// FilterCompare vs the scalar reference: for every op, the encoded matches
/// must equal brute-force row-at-a-time comparison (null rows never match).
void ExpectFilterExact(const ColumnVector& src, const Value& literal) {
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (ColumnEncoding e : kAllEncodings) {
    if (!EncodedColumn::Eligible(src, e)) continue;
    EncodedColumn enc = EncodedColumn::EncodeWith(src, e);
    for (CompareOp op : kOps) {
      SCOPED_TRACE(std::string("encoding=") + ColumnEncodingName(e) +
                   " op=" + std::to_string(static_cast<int>(op)) +
                   " literal=" + literal.ToString());
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < src.size(); ++i) {
        Value v = src.GetValue(i);
        if (v.is_null() || literal.is_null()) continue;
        if (CompareMatches(op, v.Compare(literal))) {
          expect.push_back(static_cast<uint32_t>(i));
        }
      }
      std::vector<uint32_t> got;
      enc.FilterCompare(op, literal, /*candidates=*/nullptr, &got);
      EXPECT_EQ(got, expect);
      // Candidate-restricted form over every third row.
      std::vector<uint32_t> cand;
      for (size_t i = 0; i < src.size(); i += 3) {
        cand.push_back(static_cast<uint32_t>(i));
      }
      std::vector<uint32_t> expect_cand;
      for (uint32_t i : expect) {
        if (i % 3 == 0) expect_cand.push_back(i);
      }
      got.clear();
      enc.FilterCompare(op, literal, &cand, &got);
      EXPECT_EQ(got, expect_cand);
    }
  }
}

// ------------------------------------------------------------ BitPackedArray

TEST(BitPackedArrayTest, PacksAndExtractsAcrossWordBoundaries) {
  for (int bits : {1, 3, 7, 13, 31, 33, 63, 64}) {
    std::vector<uint64_t> values;
    uint64_t mask =
        bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
    util::Rng rng(42 + static_cast<uint64_t>(bits));
    for (int i = 0; i < 300; ++i) values.push_back(rng.Next() & mask);
    BitPackedArray arr = BitPackedArray::Pack(values, bits);
    ASSERT_EQ(arr.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(arr.Get(i), values[i]) << "bits " << bits << " i " << i;
    }
  }
}

TEST(BitPackedArrayTest, ZeroWidthStoresNothing) {
  BitPackedArray arr = BitPackedArray::Pack({0, 0, 0, 0}, 0);
  EXPECT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr.ByteSize(), 0u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(arr.Get(i), 0u);
}

TEST(BitPackedArrayTest, BitsFor) {
  EXPECT_EQ(BitPackedArray::BitsFor(0), 0);
  EXPECT_EQ(BitPackedArray::BitsFor(1), 1);
  EXPECT_EQ(BitPackedArray::BitsFor(2), 2);
  EXPECT_EQ(BitPackedArray::BitsFor(255), 8);
  EXPECT_EQ(BitPackedArray::BitsFor(256), 9);
  EXPECT_EQ(BitPackedArray::BitsFor(~uint64_t{0}), 64);
}

// ----------------------------------------------------------- round-trip laws

TEST(EncodedColumnTest, RoundTripInt64Patterns) {
  // Low-cardinality, runs, wide range, negatives.
  ColumnVector runs;
  for (int i = 0; i < 500; ++i) runs.Append(Value::Int64(i / 50));
  ExpectRoundTrip(runs);

  ColumnVector wide;
  for (int i = 0; i < 500; ++i) {
    wide.Append(Value::Int64((i * 2654435761LL) % 1000003 - 500000));
  }
  ExpectRoundTrip(wide);

  ColumnVector extremes;
  extremes.Append(Value::Int64(INT64_MIN));
  extremes.Append(Value::Int64(INT64_MAX));
  extremes.Append(Value::Int64(0));
  extremes.Append(Value::Int64(-1));
  ExpectRoundTrip(extremes);
}

TEST(EncodedColumnTest, RoundTripStringsAndDoublesAndBools) {
  ColumnVector strs;
  for (int i = 0; i < 300; ++i) {
    strs.Append(Value::String("family-" + std::to_string(i % 7)));
  }
  ExpectRoundTrip(strs);

  ColumnVector dbls;
  for (int i = 0; i < 300; ++i) dbls.Append(Value::Double(i * 0.25 - 30.0));
  ExpectRoundTrip(dbls);

  ColumnVector bools;
  for (int i = 0; i < 100; ++i) bools.Append(Value::Bool(i % 3 == 0));
  ExpectRoundTrip(bools);
}

TEST(EncodedColumnTest, RoundTripNullPatterns) {
  // Leading nulls (type fixed late), interleaved nulls, all-null.
  ColumnVector leading;
  for (int i = 0; i < 10; ++i) leading.AppendNull();
  for (int i = 0; i < 90; ++i) leading.Append(Value::Int64(i % 4));
  ExpectRoundTrip(leading);

  ColumnVector interleaved;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 2) {
      interleaved.AppendNull();
    } else {
      interleaved.Append(Value::String(i % 2 ? "yes" : "no"));
    }
  }
  ExpectRoundTrip(interleaved);

  ColumnVector all_null;
  for (int i = 0; i < 64; ++i) all_null.AppendNull();
  ExpectRoundTrip(all_null);
}

TEST(EncodedColumnTest, RoundTripEdgeShapes) {
  ColumnVector empty;
  ExpectRoundTrip(empty);

  ColumnVector single;
  single.Append(Value::Int64(7));
  ExpectRoundTrip(single);

  ColumnVector constant;
  for (int i = 0; i < 128; ++i) constant.Append(Value::String("same"));
  ExpectRoundTrip(constant);

  ColumnVector all_distinct;
  for (int i = 0; i < 257; ++i) all_distinct.Append(Value::Int64(i));
  ExpectRoundTrip(all_distinct);
}

TEST(EncodedColumnTest, MixedAndNanColumnsFallBackToPlain) {
  // Int64(2) vs Double(2.0) compare equal but are bit-different; a
  // Compare-keyed dictionary or run merge would lose the distinction.
  ColumnVector mixed;
  mixed.Append(Value::Int64(2));
  mixed.Append(Value::Double(2.0));
  EXPECT_FALSE(EncodedColumn::Eligible(mixed, ColumnEncoding::kDictionary));
  EXPECT_FALSE(EncodedColumn::Eligible(mixed, ColumnEncoding::kRunLength));
  EXPECT_FALSE(
      EncodedColumn::Eligible(mixed, ColumnEncoding::kFrameOfReference));
  EXPECT_EQ(EncodedColumn::ChooseEncoding(mixed), ColumnEncoding::kPlain);
  ExpectRoundTrip(mixed);

  // NaN compares equal to everything under Value::Compare; Compare-based
  // dedup/sort would corrupt a dictionary, so NaN poisons eligibility.
  ColumnVector with_nan;
  with_nan.Append(Value::Double(1.0));
  with_nan.Append(Value::Double(std::nan("")));
  EXPECT_FALSE(
      EncodedColumn::Eligible(with_nan, ColumnEncoding::kDictionary));
  EXPECT_FALSE(EncodedColumn::Eligible(with_nan, ColumnEncoding::kRunLength));
  EXPECT_EQ(EncodedColumn::ChooseEncoding(with_nan), ColumnEncoding::kPlain);
}

// ------------------------------------------------------------- filter kernels

TEST(EncodedColumnTest, FilterCompareMatchesScalarReference) {
  ColumnVector ints;
  for (int i = 0; i < 400; ++i) {
    if (i % 11 == 3) {
      ints.AppendNull();
    } else {
      ints.Append(Value::Int64(i % 13));
    }
  }
  ExpectFilterExact(ints, Value::Int64(6));
  ExpectFilterExact(ints, Value::Int64(-1));   // below range
  ExpectFilterExact(ints, Value::Int64(99));   // above range
  ExpectFilterExact(ints, Value::Double(6.0)); // cross-type numeric
  ExpectFilterExact(ints, Value::Double(5.5)); // between codes
  ExpectFilterExact(ints, Value::Null());      // null literal: no matches
  ExpectFilterExact(ints, Value::String("x")); // cross-type by type id

  ColumnVector strs;
  for (int i = 0; i < 200; ++i) {
    strs.Append(Value::String("k" + std::to_string(i % 5)));
  }
  ExpectFilterExact(strs, Value::String("k2"));
  ExpectFilterExact(strs, Value::String("a"));   // below all
  ExpectFilterExact(strs, Value::String("zz"));  // above all
  ExpectFilterExact(strs, Value::Int64(3));      // cross-type by type id
}

TEST(EncodedColumnTest, FrameOfReferenceSpansTheWholeInt64Range) {
  // An INT64_MIN base with deltas up to UINT64_MAX: every decode site adds
  // base and delta without signed overflow (UBSan is fatal on the ASan
  // lane).
  ColumnVector full;
  for (int64_t v : {INT64_MIN, INT64_MIN + 1, int64_t{-1}, int64_t{0},
                    int64_t{1}, INT64_MAX - 1, INT64_MAX}) {
    full.Append(Value::Int64(v));
  }
  full.AppendNull();
  ASSERT_TRUE(
      EncodedColumn::Eligible(full, ColumnEncoding::kFrameOfReference));
  EncodedColumn enc =
      EncodedColumn::EncodeWith(full, ColumnEncoding::kFrameOfReference);
  ASSERT_EQ(enc.encoding(), ColumnEncoding::kFrameOfReference);
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(enc.ValueAt(i), full.GetValue(i)) << "row " << i;
  }
  // Every op, Int64 and Double literals, against the scalar reference.
  for (const Value& literal :
       {Value::Int64(INT64_MIN), Value::Int64(-1), Value::Int64(0),
        Value::Int64(INT64_MAX), Value::Double(-9.3e18), Value::Double(-0.5),
        Value::Double(0.0), Value::Double(1e19)}) {
    ExpectFilterExact(full, literal);
  }
}

TEST(FilterSegmentTest, ConjunctionAndEmptyClauses) {
  // Build a two-column segment through the public snapshot builder.
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value::Int64(i % 10), Value::String(i < 50 ? "a" : "b")});
  }
  std::vector<const Row*> ptrs;
  for (const Row& r : rows) ptrs.push_back(&r);
  EncodedTableSnapshot snap =
      BuildEncodedTableSnapshot(2, ptrs, /*segment_rows=*/100);
  ASSERT_EQ(snap.segments.size(), 1u);
  const EncodedSegment& seg = snap.segments[0];

  std::vector<uint32_t> matches, scratch;
  // No clauses: every row.
  FilterSegment(seg, {}, &matches, &scratch);
  ASSERT_EQ(matches.size(), 100u);

  // col0 >= 7 AND col1 = "a": rows {7,8,9,17,...,47...}.
  std::vector<EncodedPredicate> clauses = {
      {0, CompareOp::kGe, Value::Int64(7)},
      {1, CompareOp::kEq, Value::String("a")}};
  matches.clear();
  FilterSegment(seg, clauses, &matches, &scratch);
  std::vector<uint32_t> expect;
  for (uint32_t i = 0; i < 100; ++i) {
    if (i % 10 >= 7 && i < 50) expect.push_back(i);
  }
  EXPECT_EQ(matches, expect);

  // Contradictory clauses short-circuit to empty.
  clauses.push_back({0, CompareOp::kLt, Value::Int64(0)});
  matches.clear();
  FilterSegment(seg, clauses, &matches, &scratch);
  EXPECT_TRUE(matches.empty());
}

// --------------------------------------------------------------- the chooser

TEST(EncodedColumnTest, ChooserPicksSensibleEncodings) {
  // Long runs -> RLE.
  ColumnVector runs;
  for (int i = 0; i < 4096; ++i) runs.Append(Value::Int64(i / 512));
  EXPECT_EQ(EncodedColumn::ChooseEncoding(runs), ColumnEncoding::kRunLength);

  // Low-cardinality scattered strings -> dictionary.
  ColumnVector cats;
  for (int i = 0; i < 4096; ++i) {
    cats.Append(Value::String("family-" + std::to_string(i % 8)));
  }
  EXPECT_EQ(EncodedColumn::ChooseEncoding(cats), ColumnEncoding::kDictionary);

  // Narrow-range scattered ints -> frame-of-reference beats a dictionary of
  // thousands of distinct values.
  ColumnVector narrow;
  for (int i = 0; i < 4096; ++i) {
    narrow.Append(Value::Int64(1000000 + (i * 2654435761LL) % 4096));
  }
  EncodedColumn enc = EncodedColumn::Encode(narrow);
  EXPECT_EQ(enc.encoding(), ColumnEncoding::kFrameOfReference);
  EXPECT_LT(enc.EncodedBytes(), enc.PlainBytes() / 2);

  // All-distinct doubles: nothing compresses, plain wins.
  ColumnVector dbls;
  for (int i = 0; i < 4096; ++i) dbls.Append(Value::Double(i * 1.000001));
  EXPECT_EQ(EncodedColumn::ChooseEncoding(dbls), ColumnEncoding::kPlain);
}

// -------------------------------------------------- table snapshot lifecycle

Table MakeEncTable(int rows) {
  auto s = Schema::Create({
      {"id", ValueType::kInt64, false},
      {"family", ValueType::kString, false},
      {"score", ValueType::kDouble, true},
  });
  EXPECT_TRUE(s.ok());
  Table t("enc", *s);
  for (int i = 0; i < rows; ++i) {
    auto id = t.Insert({Value::Int64(i),
                        Value::String("fam" + std::to_string(i % 5)),
                        i % 7 == 0 ? Value::Null() : Value::Double(i * 0.5)});
    EXPECT_TRUE(id.ok());
  }
  return t;
}

TEST(TableEncodingTest, BuildExposeAndInvalidate) {
  Table t = MakeEncTable(1000);
  EXPECT_EQ(t.encoded(), nullptr);
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  const EncodedTableSnapshot* snap = t.encoded();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_rows, 1000u);
  EXPECT_EQ(snap->segments.size(), 4u);  // 1000 rows / 256 per segment
  EXPECT_GT(snap->CompressionRatio(), 1.0);

  // Snapshot rows match table rows exactly.
  for (size_t s = 0, row = 0; s < snap->segments.size(); ++s) {
    const EncodedSegment& seg = snap->segments[s];
    for (size_t i = 0; i < seg.num_rows; ++i, ++row) {
      for (size_t c = 0; c < seg.columns.size(); ++c) {
        EXPECT_EQ(seg.columns[c].ValueAt(i),
                  t.row(static_cast<RowId>(row))[c]);
      }
    }
  }

  // Any mutation invalidates: encoded() hides the stale snapshot.
  ASSERT_TRUE(t.Insert({Value::Int64(-1), Value::String("fam0"),
                        Value::Double(0.0)})
                  .ok());
  EXPECT_EQ(t.encoded(), nullptr);
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  ASSERT_NE(t.encoded(), nullptr);
  EXPECT_EQ(t.encoded()->num_rows, 1001u);

  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_EQ(t.encoded(), nullptr);

  // Rebuild skips tombstones.
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  EXPECT_EQ(t.encoded()->num_rows, 1000u);

  t.DropEncodedSegments();
  EXPECT_EQ(t.encoded(), nullptr);
}

/// The snapshot holds exactly the table's live rows, type tags included.
void ExpectSnapshotHoldsLiveRows(const EncodedTableSnapshot& snap,
                                 const Table& t) {
  std::vector<RowId> live = t.LiveRows();
  ASSERT_EQ(snap.num_rows, live.size());
  size_t row = 0;
  for (const EncodedSegment& seg : snap.segments) {
    for (size_t i = 0; i < seg.num_rows; ++i, ++row) {
      const Row& want = t.row(live[row]);
      for (size_t c = 0; c < seg.columns.size(); ++c) {
        Value got = seg.columns[c].ValueAt(i);
        EXPECT_EQ(got.type(), want[c].type()) << "row " << row << " col " << c;
        EXPECT_EQ(got, want[c]) << "row " << row << " col " << c;
      }
    }
  }
}

/// Segment-by-segment equality: encodings, bytes and every value.
void ExpectSameSnapshot(const EncodedTableSnapshot& got,
                        const EncodedTableSnapshot& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  EXPECT_EQ(got.segment_rows, want.segment_rows);
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes);
  EXPECT_EQ(got.plain_bytes, want.plain_bytes);
  for (size_t s = 0; s < got.segments.size(); ++s) {
    const EncodedSegment& g = got.segments[s];
    const EncodedSegment& w = want.segments[s];
    ASSERT_EQ(g.num_rows, w.num_rows);
    ASSERT_EQ(g.columns.size(), w.columns.size());
    for (size_t c = 0; c < g.columns.size(); ++c) {
      SCOPED_TRACE("segment " + std::to_string(s) + " col " +
                   std::to_string(c));
      EXPECT_EQ(g.columns[c].encoding(), w.columns[c].encoding());
      EXPECT_EQ(g.columns[c].EncodedBytes(), w.columns[c].EncodedBytes());
      EXPECT_EQ(g.columns[c].PlainBytes(), w.columns[c].PlainBytes());
      for (size_t i = 0; i < g.num_rows; ++i) {
        Value gv = g.columns[c].ValueAt(i), wv = w.columns[c].ValueAt(i);
        EXPECT_EQ(gv.type(), wv.type()) << "row " << i;
        EXPECT_EQ(gv, wv) << "row " << i;
      }
    }
  }
}

TEST(TableEncodingTest, FreshRebuildKeepsTheSnapshot) {
  Table t = MakeEncTable(1000);
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  const EncodedTableSnapshot* snap = t.encoded();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->segment_rows, 256u);
  const uint64_t plan_version = t.plan_version();

  // Nothing changed: same snapshot object, same plan version.
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  EXPECT_EQ(t.encoded(), snap);
  EXPECT_EQ(t.plan_version(), plan_version);

  // Another segment size is another snapshot.
  ASSERT_TRUE(t.BuildEncodedSegments(128).ok());
  ASSERT_NE(t.encoded(), nullptr);
  EXPECT_EQ(t.encoded()->segment_rows, 128u);
  EXPECT_EQ(t.encoded()->segments.size(), 8u);
  EXPECT_NE(t.plan_version(), plan_version);
  ExpectSnapshotHoldsLiveRows(*t.encoded(), t);
}

TEST(TableEncodingTest, RebuildAfterWritesEqualsBuildFromScratch) {
  Table t = MakeEncTable(1000);
  ASSERT_TRUE(t.Analyze().ok());
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  auto from_scratch = [&t] {
    std::vector<const Row*> live;
    for (RowId id : t.LiveRows()) live.push_back(&t.row(id));
    return BuildEncodedTableSnapshot(t.schema().NumColumns(), live, 256);
  };

  // An insert: a new family value and a null score.
  ASSERT_TRUE(
      t.Insert({Value::Int64(5000), Value::String("fam9"), Value::Null()})
          .ok());
  EXPECT_FALSE(t.stats_fresh());
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  ASSERT_NE(t.encoded(), nullptr);
  EXPECT_TRUE(t.stats_fresh());
  ExpectSameSnapshot(*t.encoded(), from_scratch());
  ExpectSnapshotHoldsLiveRows(*t.encoded(), t);

  // A delete in the middle shifts every later segment by one row.
  ASSERT_TRUE(t.Delete(300).ok());
  EXPECT_FALSE(t.stats_fresh());
  ASSERT_TRUE(t.BuildEncodedSegments(256).ok());
  ASSERT_NE(t.encoded(), nullptr);
  EXPECT_TRUE(t.stats_fresh());
  EXPECT_EQ(t.encoded()->num_rows, 1000u);
  ExpectSameSnapshot(*t.encoded(), from_scratch());
  ExpectSnapshotHoldsLiveRows(*t.encoded(), t);
}

// ------------------------------------------------- appends fold, exactly

/// Equality down to the bits: the type, and a double's bit pattern (so
/// -0.0 differs from 0.0 and a NaN equals only itself).
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  double x = a.AsDouble(), y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// Every cell of `got` equals the same cell of `want` down to the bits.
void ExpectSameCellBits(const EncodedTableSnapshot& got,
                        const EncodedTableSnapshot& want) {
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (size_t s = 0; s < got.segments.size(); ++s) {
    const EncodedSegment& g = got.segments[s];
    ASSERT_EQ(g.num_rows, want.segments[s].num_rows);
    for (size_t c = 0; c < g.columns.size(); ++c) {
      for (size_t i = 0; i < g.num_rows; ++i) {
        Value gv = g.columns[c].ValueAt(i);
        Value wv = want.segments[s].columns[c].ValueAt(i);
        ASSERT_TRUE(SameBits(gv, wv))
            << "segment " << s << " col " << c << " row " << i << ": "
            << gv.ToString() << " vs " << wv.ToString();
      }
    }
  }
}

/// Every TableStats figure, histogram edges included, down to the bits.
void ExpectSameStats(const TableStats& got, const TableStats& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.NumColumns(), want.NumColumns());
  for (size_t c = 0; c < got.NumColumns(); ++c) {
    SCOPED_TRACE("stats col " + std::to_string(c));
    const ColumnStats& g = got.column(c);
    const ColumnStats& w = want.column(c);
    EXPECT_EQ(g.num_rows(), w.num_rows());
    EXPECT_EQ(g.num_nulls(), w.num_nulls());
    EXPECT_EQ(g.num_distinct(), w.num_distinct());
    EXPECT_EQ(g.num_runs(), w.num_runs());
    EXPECT_TRUE(SameBits(g.min(), w.min()))
        << g.min().ToString() << " vs " << w.min().ToString();
    EXPECT_TRUE(SameBits(g.max(), w.max()))
        << g.max().ToString() << " vs " << w.max().ToString();
    ASSERT_EQ(g.boundaries().size(), w.boundaries().size());
    for (size_t b = 0; b < g.boundaries().size(); ++b) {
      EXPECT_TRUE(SameBits(Value::Double(g.boundaries()[b]),
                           Value::Double(w.boundaries()[b])))
          << "edge " << b << ": " << g.boundaries()[b] << " vs "
          << w.boundaries()[b];
    }
  }
}

/// The snapshot and stats `t` holds equal a build from scratch over its
/// live rows.
void ExpectEqualsBuildFromScratch(const Table& t, size_t segment_rows) {
  std::vector<const Row*> live;
  for (RowId id : t.LiveRows()) live.push_back(&t.row(id));
  EncodedTableSnapshot want =
      BuildEncodedTableSnapshot(t.schema().NumColumns(), live, segment_rows);
  ASSERT_NE(t.encoded(), nullptr);
  ExpectSameSnapshot(*t.encoded(), want);
  ExpectSameCellBits(*t.encoded(), want);
  auto stats = TableStats::Analyze(t.schema(), live);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(t.stats_fresh());
  ExpectSameStats(*t.stats(), *stats);
}

Schema FoldSchema() {
  auto s = Schema::Create({
      {"run", ValueType::kInt64, true},
      {"cat", ValueType::kString, true},
      {"wide", ValueType::kInt64, true},
      {"score", ValueType::kDouble, true},
      {"flag", ValueType::kBool, true},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

/// Row i of a fold table before any append: long runs (rle), six
/// categories with nulls (dict), ints in a 64-wide frame (for), doubles
/// with signed zeros (plain) and runs of flags.
Row FoldBaseRow(int i) {
  return {Value::Int64(i / 100),
          i % 17 == 0 ? Value::Null()
                      : Value::String("c" + std::to_string(i % 6)),
          Value::Int64(1000 + (i * 7) % 64),
          i % 9 == 0 ? Value::Double(i % 2 == 0 ? 0.0 : -0.0)
                     : Value::Double(i * 0.25),
          Value::Bool((i / 40) % 2 == 0)};
}

/// Seeded appended rows. Runs continue or break; categories repeat, are
/// new, or rank before or after every other; ints stay in the frame,
/// widen it, lower its base or hit the int64 extremes; doubles repeat,
/// are signed zeros, and in the last half of the steps can be Int64 (the
/// column turns mixed) and in the last third NaN.
class FoldRows {
 public:
  explicit FoldRows(uint64_t seed) : rng_(seed) {}

  Row Next(int step, int steps) {
    Row row(5);
    if (rng_.Bernoulli(0.15)) run_ = static_cast<int64_t>(rng_.Uniform(40));
    row[0] = rng_.Bernoulli(0.03) ? Value::Null() : Value::Int64(run_);

    double u = rng_.NextDouble();
    if (u < 0.08) {
      row[1] = Value::Null();
    } else if (u < 0.70) {
      row[1] = Value::String("c" + std::to_string(rng_.Uniform(6)));
    } else if (u < 0.76) {
      row[1] = Value::String("\x01" + std::to_string(900000 - ++firsts_));
    } else if (u < 0.82) {
      row[1] = Value::String("\x7f" + std::to_string(100000 + ++lasts_));
    } else {
      row[1] = Value::String("n" + std::to_string(rng_.Uniform(200)));
    }

    u = rng_.NextDouble();
    if (u < 0.01) {
      row[2] = Value::Int64(std::numeric_limits<int64_t>::min());
    } else if (u < 0.02) {
      row[2] = Value::Int64(std::numeric_limits<int64_t>::max());
    } else if (u < 0.06) {
      row[2] = Value::Int64(1000 + static_cast<int64_t>(rng_.Uniform(300)));
    } else if (u < 0.09) {
      row[2] = Value::Int64(999 - static_cast<int64_t>(rng_.Uniform(20)));
    } else if (u < 0.13) {
      row[2] = Value::Null();
    } else {
      row[2] = Value::Int64(1000 + static_cast<int64_t>(rng_.Uniform(64)));
    }

    u = rng_.NextDouble();
    if (step > 2 * steps / 3 && u < 0.03) {
      row[3] = Value::Double(std::nan(""));
    } else if (step > steps / 2 && u < 0.08) {
      row[3] = Value::Int64(static_cast<int64_t>(rng_.Uniform(10)));
    } else if (u < 0.25) {
      row[3] = Value::Double(rng_.Bernoulli(0.5) ? -0.0 : 0.0);
    } else if (u < 0.30) {
      row[3] = Value::Null();
    } else {
      row[3] = Value::Double(static_cast<double>(rng_.Uniform(400)) * 0.25);
    }

    if (rng_.Bernoulli(0.1)) flag_ = !flag_;
    row[4] = rng_.Bernoulli(0.02) ? Value::Null() : Value::Bool(flag_);
    return row;
  }

 private:
  util::Rng rng_;
  int64_t run_ = 2;
  bool flag_ = false;
  int firsts_ = 0, lasts_ = 0;
};

/// Appends seeded batches of 1, 2 or up to `max_batch` rows to a 300-row
/// analyzed table, rebuilding after each. After every rebuild: the
/// snapshot was folded (same object; sealed segments keep their encodings
/// and bytes), plan_version() moved as a full rebuild moves it, and
/// snapshot and stats equal a build from scratch. Ends with a Delete,
/// which takes the full path, and one more fold. Returns, through `kept`,
/// the encodings the open segment extended while keeping them, and
/// through `flips`, how often a fold changed an open column's encoding.
void CheckAppendsFold(size_t segment_rows, uint64_t seed, size_t max_batch,
                      std::set<ColumnEncoding>* kept, int* flips) {
  Table t("fold", FoldSchema());
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(t.Insert(FoldBaseRow(i)).ok());
  ASSERT_TRUE(t.Analyze().ok());
  ASSERT_TRUE(t.BuildEncodedSegments(segment_rows).ok());
  const EncodedTableSnapshot* snap = t.encoded();
  ASSERT_NE(snap, nullptr);

  FoldRows source(seed);
  util::Rng batches(seed + 1);
  const int kSteps = 150;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // What the fold must leave alone, and the open segment's encodings.
    const size_t segments = snap->segments.size();
    const bool open = segments > 0 &&
                      snap->segments.back().num_rows < segment_rows;
    const size_t sealed = open ? segments - 1 : segments;
    std::vector<std::vector<uint64_t>> sealed_figures;
    for (size_t s = 0; s < sealed; ++s) {
      std::vector<uint64_t> figures;
      for (const EncodedColumn& col : snap->segments[s].columns) {
        figures.push_back(static_cast<uint64_t>(col.encoding()));
        figures.push_back(col.EncodedBytes());
        figures.push_back(col.PlainBytes());
      }
      sealed_figures.push_back(std::move(figures));
    }
    std::vector<ColumnEncoding> open_before;
    if (open) {
      for (const EncodedColumn& col : snap->segments.back().columns) {
        open_before.push_back(col.encoding());
      }
    }

    const uint64_t roll = batches.Uniform(10);
    const size_t k = roll < 4   ? 1
                     : roll < 8 ? 2
                                : 3 + batches.Uniform(max_batch - 2);
    const uint64_t plan_version = t.plan_version();
    for (size_t r = 0; r < k; ++r) {
      ASSERT_TRUE(t.Insert(source.Next(step, kSteps)).ok());
    }
    ASSERT_TRUE(t.BuildEncodedSegments(segment_rows).ok());
    ASSERT_EQ(t.encoded(), snap) << "rebuilt instead of folding";
    // k inserts, the stats refresh and the rebuild, as before the fold.
    EXPECT_EQ(t.plan_version(), plan_version + k + 2);

    for (size_t s = 0; s < sealed; ++s) {
      std::vector<uint64_t> figures;
      for (const EncodedColumn& col : snap->segments[s].columns) {
        figures.push_back(static_cast<uint64_t>(col.encoding()));
        figures.push_back(col.EncodedBytes());
        figures.push_back(col.PlainBytes());
      }
      EXPECT_EQ(figures, sealed_figures[s]) << "sealed segment " << s;
    }
    for (size_t c = 0; c < open_before.size(); ++c) {
      ColumnEncoding now = snap->segments[sealed].columns[c].encoding();
      if (now == open_before[c]) {
        kept->insert(now);
      } else {
        ++*flips;
      }
    }
    ExpectEqualsBuildFromScratch(t, segment_rows);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // A delete takes the full path: a new snapshot, and fresh stats.
  const uint64_t plan_version = t.plan_version();
  ASSERT_TRUE(t.Delete(t.LiveRows()[t.LiveRows().size() / 2]).ok());
  ASSERT_TRUE(t.BuildEncodedSegments(segment_rows).ok());
  EXPECT_NE(t.encoded(), snap);
  EXPECT_EQ(t.plan_version(), plan_version + 3);
  ExpectEqualsBuildFromScratch(t, segment_rows);
  // And the next append folds into that snapshot.
  snap = t.encoded();
  ASSERT_TRUE(t.Insert(source.Next(kSteps, kSteps)).ok());
  ASSERT_TRUE(t.BuildEncodedSegments(segment_rows).ok());
  EXPECT_EQ(t.encoded(), snap);
  ExpectEqualsBuildFromScratch(t, segment_rows);
}

TEST(TableEncodingTest, AppendsFoldIntoTheOpenSegment) {
  std::set<ColumnEncoding> kept;
  int flips = 0;
  CheckAppendsFold(Table::kDefaultSegmentRows, 2024, 40, &kept, &flips);
  // The loop extended every encoding in place and flipped the chooser.
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_GT(flips, 0);
}

TEST(TableEncodingTest, AppendsFoldAcrossSegmentBoundaries) {
  std::set<ColumnEncoding> kept;
  int flips = 0;
  // Batches of up to 300 rows seal the open segment and fill new ones,
  // some of them whole.
  CheckAppendsFold(256, 77, 300, &kept, &flips);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_GT(flips, 0);
}

TEST(TableEncodingTest, FoldKeepsTheFirstOfEqualNewCells) {
  // -0.0 and 0.0 are one dictionary value, stored with the bits of its
  // first cell. A batch that brings both in must keep -0.0, as a build
  // from scratch does.
  auto s = Schema::Create({{"x", ValueType::kDouble, true}});
  ASSERT_TRUE(s.ok());
  Table t("zeros", *s);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Insert({Value::Double(1.0 + i % 4)}).ok());
  }
  ASSERT_TRUE(t.Analyze().ok());
  ASSERT_TRUE(t.BuildEncodedSegments().ok());
  const EncodedTableSnapshot* snap = t.encoded();
  for (double x : {-0.0, 0.0, 0.0}) {
    ASSERT_TRUE(t.Insert({Value::Double(x)}).ok());
  }
  ASSERT_TRUE(t.BuildEncodedSegments().ok());
  ASSERT_EQ(t.encoded(), snap);
  EXPECT_EQ(snap->segments[0].columns[0].encoding(),
            ColumnEncoding::kDictionary);
  ExpectEqualsBuildFromScratch(t, Table::kDefaultSegmentRows);
}

TEST(TableEncodingTest, ScanFootprintShrinksWhenEncoded) {
  Table t = MakeEncTable(2000);
  uint64_t plain = t.ApproxScanFootprintBytes();
  ASSERT_TRUE(t.BuildEncodedSegments().ok());
  uint64_t encoded = t.ApproxScanFootprintBytes();
  EXPECT_LT(encoded, plain / 2) << "plain=" << plain
                                << " encoded=" << encoded;
  EXPECT_EQ(encoded, t.encoded()->encoded_bytes);
}

TEST(TableEncodingTest, SnapshotSummaryNamesEncodings) {
  Table t = MakeEncTable(2000);
  ASSERT_TRUE(t.BuildEncodedSegments().ok());
  std::string summary = t.encoded()->Summary(t.schema());
  EXPECT_NE(summary.find("family=dict"), std::string::npos) << summary;
}

// ----------------------------------------------------- statistics extensions

TEST(StatisticsTest, RunCountsAndAverageRunLength) {
  auto s = Schema::Create({{"v", ValueType::kInt64, true}});
  ASSERT_TRUE(s.ok());
  std::vector<Row> rows;
  // 1,1,1,1,2,2,2,2,NULL,NULL,3,3 -> 4 runs over 12 rows.
  for (int i = 0; i < 4; ++i) rows.push_back({Value::Int64(1)});
  for (int i = 0; i < 4; ++i) rows.push_back({Value::Int64(2)});
  for (int i = 0; i < 2; ++i) rows.push_back({Value::Null()});
  for (int i = 0; i < 2; ++i) rows.push_back({Value::Int64(3)});
  auto stats = TableStats::Analyze(*s, rows);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->column(0).num_runs(), 4);
  EXPECT_DOUBLE_EQ(stats->column(0).avg_run_length(), 3.0);
  EXPECT_EQ(stats->column(0).num_distinct(), 3);
}

TEST(StatisticsTest, TableAnalyzeReadsLiveRowsInPlace) {
  // The run-count fixture above, analyzed in place through a table whose
  // tombstones must not count.
  auto s = Schema::Create({{"v", ValueType::kInt64, true}});
  ASSERT_TRUE(s.ok());
  Table t("runs", *s);
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({Value::Int64(1)});
  for (int i = 0; i < 4; ++i) rows.push_back({Value::Int64(2)});
  for (int i = 0; i < 2; ++i) rows.push_back({Value::Null()});
  for (int i = 0; i < 2; ++i) rows.push_back({Value::Int64(3)});
  ASSERT_TRUE(t.Insert({Value::Int64(7)}).ok());
  for (const Row& r : rows) ASSERT_TRUE(t.Insert(r).ok());
  ASSERT_TRUE(t.Delete(0).ok());
  ASSERT_TRUE(t.Analyze().ok());
  const ColumnStats& v = t.stats()->column(0);
  EXPECT_EQ(t.stats()->num_rows(), 12);
  EXPECT_EQ(v.num_runs(), 4);
  EXPECT_DOUBLE_EQ(v.avg_run_length(), 3.0);
  EXPECT_EQ(v.num_distinct(), 3);
  EXPECT_EQ(v.num_nulls(), 2);
  EXPECT_EQ(v.min(), Value::Int64(1));
  EXPECT_EQ(v.max(), Value::Int64(3));

  // And it agrees with the owned-rows overload on every column figure.
  Table enc = MakeEncTable(500);
  ASSERT_TRUE(enc.Delete(10).ok());
  ASSERT_TRUE(enc.Analyze().ok());
  std::vector<Row> live;
  for (RowId id : enc.LiveRows()) live.push_back(enc.row(id));
  auto owned = TableStats::Analyze(enc.schema(), live);
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(enc.stats()->num_rows(), owned->num_rows());
  for (size_t c = 0; c < enc.schema().NumColumns(); ++c) {
    SCOPED_TRACE("col " + std::to_string(c));
    const ColumnStats& got = enc.stats()->column(c);
    const ColumnStats& want = owned->column(c);
    EXPECT_EQ(got.num_nulls(), want.num_nulls());
    EXPECT_EQ(got.num_distinct(), want.num_distinct());
    EXPECT_EQ(got.num_runs(), want.num_runs());
    EXPECT_EQ(got.min().type(), want.min().type());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    for (int lo = -50; lo < 600; lo += 37) {
      EXPECT_DOUBLE_EQ(
          got.RangeSelectivity(Value::Int64(lo), true, Value::Int64(lo + 90),
                               true),
          want.RangeSelectivity(Value::Int64(lo), true, Value::Int64(lo + 90),
                                true));
    }
  }
}

TEST(StatisticsTest, StatsFreshnessTracksMutations) {
  Table t = MakeEncTable(100);
  EXPECT_FALSE(t.stats_fresh());
  ASSERT_TRUE(t.Analyze().ok());
  EXPECT_TRUE(t.stats_fresh());
  // A tombstone-creating delete (the staleness bug this field fixes: stats
  // computed before deletes kept being served as fresh).
  ASSERT_TRUE(t.Delete(3).ok());
  EXPECT_FALSE(t.stats_fresh());
  ASSERT_TRUE(t.Analyze().ok());
  EXPECT_TRUE(t.stats_fresh());
}

}  // namespace
}  // namespace storage
}  // namespace drugtree
