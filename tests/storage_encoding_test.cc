#include "storage/encoded_segment.h"

#include <gtest/gtest.h>

#include <cmath>
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
