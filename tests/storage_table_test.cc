#include "storage/table.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/rng.h"

namespace drugtree {
namespace storage {
namespace {

Schema TestSchema() {
  auto s = Schema::Create({
      {"id", ValueType::kInt64, false},
      {"name", ValueType::kString, false},
      {"score", ValueType::kDouble, true},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Table MakeTable(int rows) {
  Table t("test", TestSchema());
  for (int i = 0; i < rows; ++i) {
    auto id = t.Insert({Value::Int64(i),
                        Value::String("row" + std::to_string(i % 10)),
                        Value::Double(i * 1.5)});
    EXPECT_TRUE(id.ok());
    EXPECT_EQ(*id, i);
  }
  return t;
}

TEST(TableTest, InsertAndFetch) {
  Table t = MakeTable(5);
  EXPECT_EQ(t.NumRows(), 5);
  auto row = t.FetchRow(3);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value::Int64(3));
  EXPECT_TRUE(t.FetchRow(9).status().IsOutOfRange());
}

TEST(TableTest, SchemaEnforced) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.Insert({Value::Int64(1)}).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert({Value::Null(), Value::String("x"), Value::Null()})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      t.Insert({Value::Int64(1), Value::String("x"), Value::Null()}).ok());
}

TEST(TableTest, DeleteTombstones) {
  Table t = MakeTable(5);
  ASSERT_TRUE(t.Delete(2).ok());
  EXPECT_TRUE(t.IsDeleted(2));
  EXPECT_TRUE(t.FetchRow(2).status().IsNotFound());
  EXPECT_TRUE(t.Delete(2).IsNotFound());
  EXPECT_EQ(t.LiveRows().size(), 4u);
}

TEST(TableTest, HashIndexLookup) {
  Table t = MakeTable(30);
  ASSERT_TRUE(t.CreateIndex("name", IndexKind::kHash).ok());
  auto rows = t.IndexLookup("name", Value::String("row3"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // rows 3, 13, 23
  for (RowId r : *rows) {
    EXPECT_EQ(t.row(r)[1], Value::String("row3"));
  }
}

TEST(TableTest, BTreeIndexRange) {
  Table t = MakeTable(30);
  ASSERT_TRUE(t.CreateIndex("id", IndexKind::kBTree).ok());
  auto rows = t.IndexRange("id", Value::Int64(5), true, Value::Int64(8), true);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<RowId>{5, 6, 7, 8}));
}

TEST(TableTest, IndexMaintainedAcrossInsertDelete) {
  Table t = MakeTable(10);
  ASSERT_TRUE(t.CreateIndex("id", IndexKind::kBTree).ok());
  ASSERT_TRUE(t.Delete(4).ok());
  auto rows = t.IndexRange("id", Value::Int64(3), true, Value::Int64(5), true);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<RowId>{3, 5}));
  auto id = t.Insert({Value::Int64(100), Value::String("new"),
                      Value::Double(1.0)});
  ASSERT_TRUE(id.ok());
  auto found = t.IndexLookup("id", Value::Int64(100));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, (std::vector<RowId>{*id}));
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t = MakeTable(3);
  ASSERT_TRUE(t.CreateIndex("id", IndexKind::kBTree).ok());
  EXPECT_TRUE(t.CreateIndex("id", IndexKind::kBTree).IsAlreadyExists());
  // A different flavor on the same column is allowed.
  EXPECT_TRUE(t.CreateIndex("id", IndexKind::kHash).ok());
}

TEST(TableTest, IndexOnMissingColumnRejected) {
  Table t = MakeTable(3);
  EXPECT_TRUE(t.CreateIndex("nope", IndexKind::kHash).IsNotFound());
}

TEST(TableTest, LookupWithoutIndexFails) {
  Table t = MakeTable(3);
  EXPECT_TRUE(t.IndexLookup("id", Value::Int64(1)).status().IsNotFound());
  EXPECT_TRUE(t.IndexRange("id", Value::Int64(0), true, Value::Int64(2), true)
                  .status()
                  .IsNotFound());
}

TEST(TableTest, RangeNeedsBTreeNotHash) {
  Table t = MakeTable(3);
  ASSERT_TRUE(t.CreateIndex("id", IndexKind::kHash).ok());
  EXPECT_TRUE(t.IndexRange("id", Value::Int64(0), true, Value::Int64(2), true)
                  .status()
                  .IsNotFound());
  // Point lookup through the hash index works.
  auto rows = t.IndexLookup("id", Value::Int64(1));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(TableStatsTest, AnalyzeBasics) {
  Table t = MakeTable(100);
  ASSERT_TRUE(t.Analyze().ok());
  const TableStats* stats = t.stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->num_rows(), 100);
  const ColumnStats& id = stats->column(0);
  EXPECT_EQ(id.num_distinct(), 100);
  EXPECT_EQ(id.min(), Value::Int64(0));
  EXPECT_EQ(id.max(), Value::Int64(99));
  EXPECT_EQ(id.num_nulls(), 0);
  const ColumnStats& name = stats->column(1);
  EXPECT_EQ(name.num_distinct(), 10);
}

TEST(TableStatsTest, EqualitySelectivity) {
  Table t = MakeTable(100);
  ASSERT_TRUE(t.Analyze().ok());
  const ColumnStats& name = t.stats()->column(1);
  EXPECT_NEAR(name.EqualitySelectivity(Value::String("row3")), 0.1, 1e-9);
  const ColumnStats& id = t.stats()->column(0);
  EXPECT_NEAR(id.EqualitySelectivity(Value::Int64(5)), 0.01, 1e-9);
  // Out-of-range constant selects nothing.
  EXPECT_DOUBLE_EQ(id.EqualitySelectivity(Value::Int64(1000)), 0.0);
}

TEST(TableStatsTest, RangeSelectivityFromHistogram) {
  Table t = MakeTable(1000);
  ASSERT_TRUE(t.Analyze().ok());
  const ColumnStats& id = t.stats()->column(0);
  // id in [0, 999]; the quarter range should estimate ~0.25.
  double sel = id.RangeSelectivity(Value::Int64(0), true,
                                   Value::Int64(249), true);
  EXPECT_NEAR(sel, 0.25, 0.08);
  // Full range ~ 1.
  EXPECT_NEAR(id.RangeSelectivity(Value::Null(), true, Value::Null(), true),
              1.0, 0.05);
  // Empty range.
  EXPECT_DOUBLE_EQ(id.RangeSelectivity(Value::Int64(2000), true,
                                       Value::Int64(3000), true),
                   0.0);
}

TEST(TableStatsTest, NullFractionTracked) {
  Table t("t", TestSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int64(i), Value::String("x"),
                          i < 4 ? Value::Null() : Value::Double(i)})
                    .ok());
  }
  ASSERT_TRUE(t.Analyze().ok());
  EXPECT_NEAR(t.stats()->column(2).NullFraction(), 0.4, 1e-9);
}

TEST(TableTest, RefreshAfterChurnEqualsBuildFromScratch) {
  // A refresh after appends folds them into the stats and the open encoded
  // segment through state that points into the rows; a Delete destroys a
  // row, so it must drop that state. Names are past the small-string
  // buffer, so a read of a deleted row's value touches freed memory (the
  // ASan lane runs this). Each refresh must equal a build from scratch.
  util::Rng rng(11);
  Table t("fold", TestSchema());
  auto next_row = [&rng] {
    return Row{Value::Int64(rng.UniformRange(0, 30)),
               Value::String("a name past the small-string buffer " +
                             std::to_string(rng.Uniform(12))),
               rng.Bernoulli(0.1) ? Value::Null()
                                  : Value::Double(rng.UniformDouble(-5, 5))};
  };
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Insert(next_row()).ok());
  ASSERT_TRUE(t.Analyze().ok());
  ASSERT_TRUE(t.BuildEncodedSegments(64).ok());
  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (rng.Bernoulli(0.1)) {
      // Delete the newest live row: the one the fold state saw last.
      std::vector<RowId> live = t.LiveRows();
      RowId victim = rng.Bernoulli(0.5) ? live.back()
                                        : live[rng.Uniform(live.size())];
      ASSERT_TRUE(t.Delete(victim).ok());
    } else if (rng.Bernoulli(0.75)) {
      ASSERT_TRUE(t.Insert(next_row()).ok());
    } else {
      ASSERT_TRUE(t.BuildEncodedSegments(64).ok());
      std::vector<const Row*> live;
      for (RowId id : t.LiveRows()) live.push_back(&t.row(id));
      auto stats = TableStats::Analyze(t.schema(), live);
      ASSERT_TRUE(stats.ok());
      ASSERT_TRUE(t.stats_fresh());
      for (size_t c = 0; c < t.schema().NumColumns(); ++c) {
        const ColumnStats& got = t.stats()->column(c);
        const ColumnStats& want = stats->column(c);
        EXPECT_EQ(got.num_rows(), want.num_rows());
        EXPECT_EQ(got.num_nulls(), want.num_nulls());
        EXPECT_EQ(got.num_distinct(), want.num_distinct());
        EXPECT_EQ(got.num_runs(), want.num_runs());
        EXPECT_EQ(got.min(), want.min());
        EXPECT_EQ(got.max(), want.max());
        EXPECT_EQ(got.boundaries(), want.boundaries());
      }
      EncodedTableSnapshot want =
          BuildEncodedTableSnapshot(t.schema().NumColumns(), live, 64);
      const EncodedTableSnapshot* got = t.encoded();
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(got->segments.size(), want.segments.size());
      EXPECT_EQ(got->encoded_bytes, want.encoded_bytes);
      EXPECT_EQ(got->plain_bytes, want.plain_bytes);
      size_t row = 0;
      for (const EncodedSegment& seg : got->segments) {
        for (size_t i = 0; i < seg.num_rows; ++i, ++row) {
          for (size_t c = 0; c < seg.columns.size(); ++c) {
            EXPECT_EQ(seg.columns[c].ValueAt(i), (*live[row])[c]);
          }
        }
      }
      EXPECT_EQ(row, live.size());
    }
  }
}

TEST(TableTest, SaveAndLoadRoundTrip) {
  std::string path = testing::TempDir() + "/drugtree_table_test.db";
  std::remove(path.c_str());
  auto disk = DiskManager::Open(path);
  ASSERT_TRUE(disk.ok());
  BufferPool pool(disk->get(), 16);
  Table t = MakeTable(25);
  ASSERT_TRUE(t.Delete(7).ok());
  auto dir = t.SaveTo(&pool);
  ASSERT_TRUE(dir.ok());

  Table loaded("test2", TestSchema());
  ASSERT_TRUE(loaded.LoadFrom(&pool, *dir).ok());
  EXPECT_EQ(loaded.NumRows(), 24);  // deleted row not persisted
  // Spot-check content equality for live rows.
  auto live = t.LiveRows();
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(loaded.row(static_cast<RowId>(i)), t.row(live[i]));
  }
  std::remove(path.c_str());
}

class TableIndexConsistency : public ::testing::TestWithParam<int> {};

TEST_P(TableIndexConsistency, IndexAgreesWithScanUnderChurn) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  Table t("churn", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id", IndexKind::kBTree).ok());
  ASSERT_TRUE(t.CreateIndex("name", IndexKind::kHash).ok());
  std::vector<RowId> live;
  for (int op = 0; op < 800; ++op) {
    if (live.empty() || rng.Bernoulli(0.7)) {
      auto id = t.Insert({Value::Int64(rng.UniformRange(0, 40)),
                          Value::String("n" + std::to_string(rng.Uniform(8))),
                          Value::Double(rng.NextDouble())});
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(t.Delete(live[pick]).ok());
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  // Every index lookup must agree with a full scan.
  for (int64_t key = 0; key < 40; ++key) {
    auto indexed = t.IndexLookup("id", Value::Int64(key));
    ASSERT_TRUE(indexed.ok());
    std::vector<RowId> scanned;
    for (RowId r : t.LiveRows()) {
      if (t.row(r)[0] == Value::Int64(key)) scanned.push_back(r);
    }
    EXPECT_EQ(*indexed, scanned) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableIndexConsistency, ::testing::Range(0, 4));

}  // namespace
}  // namespace storage
}  // namespace drugtree
