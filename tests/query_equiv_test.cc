// Engine equivalence tests. The naive plan defines the right answer: the
// whole query corpus runs under the optimized and naive plans, at
// parallelism {1, 4}, with encoded segments dropped and built (the
// combination harness of Hyrise's tpch_test). Every run matches its own
// plan's serial run over plain rows bit for bit and row for row, and the
// optimized plan's rows match the naive plan's. Also pins ColumnVector's exact round
// trip, EXPLAIN ANALYZE's scan bytes, runtime-error agreement, memory
// budgets, and mid-query cancellation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "obs/resource_tracker.h"
#include "phylo/newick.h"
#include "query/executor.h"
#include "query/physical.h"
#include "query/planner.h"
#include "storage/column_vector.h"

namespace drugtree {
namespace query {
namespace {

using storage::ColumnVector;
using storage::IndexKind;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

// ------------------------------------------------------------ ColumnVector

TEST(ColumnVectorTest, TypeFixingAndNullBackfill) {
  ColumnVector col;
  EXPECT_EQ(col.type(), ValueType::kNull);
  col.AppendNull();
  col.AppendNull();
  col.Append(Value::Int64(7));  // first non-null append fixes the type
  EXPECT_EQ(col.type(), ValueType::kInt64);
  EXPECT_FALSE(col.mixed());
  ASSERT_EQ(col.size(), 3u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_EQ(col.Int64At(2), 7);
  EXPECT_TRUE(col.GetValue(0).is_null());
  EXPECT_EQ(col.GetValue(2), Value::Int64(7));
}

TEST(ColumnVectorTest, MixedDemotionPreservesValues) {
  ColumnVector col;
  col.Append(Value::Int64(1));
  col.AppendNull();
  col.Append(Value::String("x"));  // type mismatch -> mixed representation
  EXPECT_TRUE(col.mixed());
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0), Value::Int64(1));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2), Value::String("x"));
}

TEST(ColumnVectorTest, ValueRoundTripIsExact) {
  // The Int64-vs-Double distinction must survive a batch round trip.
  ColumnVector col;
  col.Append(Value::Int64(1));
  col.Append(Value::Double(1.0));
  EXPECT_TRUE(col.mixed());
  EXPECT_EQ(col.GetValue(0).type(), ValueType::kInt64);
  EXPECT_EQ(col.GetValue(1).type(), ValueType::kDouble);
}

// ------------------------------------------------------ naive equivalence

class EquivTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = phylo::ParseNewick("((a,b)x,(c,d)y)r;");
    ASSERT_TRUE(t.ok());
    tree_ = std::move(*t);
    auto idx = phylo::TreeIndex::Build(tree_);
    ASSERT_TRUE(idx.ok());
    index_ = std::make_unique<phylo::TreeIndex>(std::move(*idx));

    auto pschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"family", ValueType::kString, false},
                                   {"node_id", ValueType::kInt64, true},
                                   {"pre", ValueType::kInt64, true}});
    proteins_ = std::make_unique<Table>("proteins", *pschema);
    for (auto leaf : tree_.Leaves()) {
      const std::string& name = tree_.node(leaf).name;
      ASSERT_TRUE(proteins_
                      ->Insert({Value::String(name),
                                Value::String(name < "c" ? "famA" : "famB"),
                                Value::Int64(leaf),
                                Value::Int64(index_->Pre(leaf))})
                      .ok());
    }
    ASSERT_TRUE(proteins_->CreateIndex("pre", IndexKind::kBTree).ok());
    ASSERT_TRUE(proteins_->CreateIndex("acc", IndexKind::kHash).ok());

    auto aschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"lig", ValueType::kString, false},
                                   {"aff", ValueType::kDouble, false}});
    activities_ = std::make_unique<Table>("activities", *aschema);
    struct Act { const char* acc; const char* lig; double aff; };
    for (const Act& act : std::initializer_list<Act>{
             {"a", "L1", 10}, {"a", "L2", 500}, {"b", "L1", 20},
             {"c", "L3", 5}, {"c", "L1", 900}, {"d", "L2", 50}}) {
      ASSERT_TRUE(activities_
                      ->Insert({Value::String(act.acc), Value::String(act.lig),
                                Value::Double(act.aff)})
                      .ok());
    }

    // A larger mixed-type table with NULLs, duplicates, and tombstones so
    // scans and encoded segments hit nulls and deleted-row skipping in the
    // middle of a table.
    auto nschema = Schema::Create({{"k", ValueType::kInt64, true},
                                   {"v", ValueType::kDouble, false},
                                   {"s", ValueType::kString, false},
                                   {"g", ValueType::kString, true}});
    nums_ = std::make_unique<Table>("nums", *nschema);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          nums_
              ->Insert({i % 7 == 3 ? Value::Null() : Value::Int64(i % 17),
                        Value::Double(i * 0.5 - 10.0),
                        Value::String("s" + std::to_string(i % 5)),
                        i % 4 == 0 ? Value::Null()
                                   : Value::String(i % 2 ? "odd" : "even")})
              .ok());
    }
    for (storage::RowId id : {5, 6, 30, 59}) {
      ASSERT_TRUE(nums_->Delete(id).ok());
    }

    ASSERT_TRUE(proteins_->Analyze().ok());
    ASSERT_TRUE(activities_->Analyze().ok());
    ASSERT_TRUE(nums_->Analyze().ok());
    ASSERT_TRUE(catalog_.Register(proteins_.get()).ok());
    ASSERT_TRUE(catalog_.Register(activities_.get()).ok());
    ASSERT_TRUE(catalog_.Register(nums_.get()).ok());
    catalog_.SetTree(&tree_, index_.get());
    ASSERT_TRUE(catalog_.BindTree("proteins", {"node_id", "pre", ""}).ok());
    planner_ = std::make_unique<Planner>(&catalog_);
  }

  static void ExpectIdentical(const QueryResult& ref, const QueryResult& got,
                              const std::string& tag) {
    ASSERT_EQ(ref.columns, got.columns) << tag;
    ASSERT_EQ(ref.rows.size(), got.rows.size()) << tag;
    for (size_t r = 0; r < ref.rows.size(); ++r) {
      ASSERT_EQ(ref.rows[r].size(), got.rows[r].size()) << tag << " row " << r;
      for (size_t c = 0; c < ref.rows[r].size(); ++c) {
        // Bit-identical: same variant alternative AND same payload.
        EXPECT_EQ(ref.rows[r][c].type(), got.rows[r][c].type())
            << tag << " cell (" << r << "," << c << ")";
        EXPECT_TRUE(ref.rows[r][c] == got.rows[r][c])
            << tag << " cell (" << r << "," << c
            << "): " << ref.rows[r][c].ToString() << " vs "
            << got.rows[r][c].ToString();
      }
    }
  }

  /// Without ORDER BY a plan may emit rows in any order (join order and
  /// access paths differ between plans), so those results compare as
  /// multisets: rows sorted by their exact byte encoding.
  static QueryResult Canonical(QueryResult result, const std::string& sql) {
    if (sql.find("ORDER BY") != std::string::npos) return result;
    std::vector<std::pair<std::string, Row>> keyed;
    for (Row& row : result.rows) {
      std::string key;
      storage::EncodeRow(row, &key);
      keyed.emplace_back(std::move(key), std::move(row));
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    result.rows.clear();
    for (auto& [key, row] : keyed) result.rows.push_back(std::move(row));
    return result;
  }

  void BuildSegments() {
    ASSERT_TRUE(proteins_->BuildEncodedSegments(16).ok());
    ASSERT_TRUE(activities_->BuildEncodedSegments(4).ok());
    ASSERT_TRUE(nums_->BuildEncodedSegments(16).ok());
  }

  void DropSegments() {
    proteins_->DropEncodedSegments();
    activities_->DropEncodedSegments();
    nums_->DropEncodedSegments();
  }

  phylo::Tree tree_;
  std::unique_ptr<phylo::TreeIndex> index_;
  std::unique_ptr<Table> proteins_, activities_, nums_;
  Catalog catalog_;
  std::unique_ptr<Planner> planner_;
};

const char* kCorpus[] = {
    // Scans, filters, projections.
    "SELECT p.acc FROM proteins p",
    "SELECT p.acc FROM proteins p WHERE p.family = 'famA'",
    "SELECT n.k, n.v, n.s, n.g FROM nums n",
    "SELECT n.k FROM nums n WHERE n.k > 5",
    "SELECT n.s, n.k + 1 AS k1, n.v * 2.0 AS v2 FROM nums n "
    "WHERE n.v >= -5.0",
    "SELECT n.v - n.k AS d FROM nums n",
    "SELECT n.k / 4.0 AS q FROM nums n WHERE n.v > 0.1",
    "SELECT n.s FROM nums n WHERE n.s >= 's2'",
    "SELECT n.k FROM nums n WHERE n.k IS NULL",
    "SELECT n.k FROM nums n WHERE n.k IS NOT NULL AND n.g = 'even'",
    "SELECT n.k FROM nums n WHERE n.g = 'even' OR n.k < 3",
    "SELECT n.k FROM nums n WHERE NOT n.g = 'odd'",
    "SELECT n.k, n.v FROM nums n WHERE n.k BETWEEN 3 AND 9 "
    "ORDER BY n.k, n.v",
    // Index access paths.
    "SELECT p.acc FROM proteins p WHERE p.pre >= 1 AND p.pre <= 5",
    "SELECT p.acc FROM proteins p WHERE p.acc = 'c'",
    // Limits and DISTINCT.
    "SELECT n.k FROM nums n LIMIT 7",
    "SELECT a.aff FROM activities a ORDER BY a.aff DESC LIMIT 2",
    "SELECT a.aff FROM activities a LIMIT 0",
    "SELECT DISTINCT n.s FROM nums n ORDER BY n.s",
    "SELECT DISTINCT n.g FROM nums n",
    // Joins: hash (with NULL keys), residuals, nested-loop, cross, 3-way.
    "SELECT p.acc, a.aff FROM proteins p JOIN activities a "
    "ON p.acc = a.acc WHERE a.aff < 100.0",
    "SELECT n1.k, n2.v FROM nums n1 JOIN nums n2 ON n1.k = n2.k "
    "WHERE n1.v < n2.v",
    "SELECT n1.s FROM nums n1, nums n2 WHERE n1.k = n2.k "
    "AND n1.v + n2.v > 0.0",
    "SELECT p.acc, l.aff FROM proteins p, activities l WHERE l.aff > 400.0",
    "SELECT p.acc, a.lig, a2.aff FROM proteins p "
    "JOIN activities a ON p.acc = a.acc "
    "JOIN activities a2 ON a.lig = a2.lig WHERE a2.aff >= 10.0",
    // Aggregation.
    "SELECT p.family, COUNT(*) AS n, MIN(a.aff) AS best, MAX(a.aff) AS worst "
    "FROM proteins p JOIN activities a ON p.acc = a.acc GROUP BY p.family "
    "ORDER BY p.family",
    "SELECT COUNT(*) AS n, AVG(a.aff) AS m FROM activities a",
    "SELECT COUNT(*) AS n FROM activities a WHERE a.aff < 0",
    "SELECT n.g, COUNT(*) AS c, SUM(n.k) AS sk, AVG(n.v) AS av FROM nums n "
    "GROUP BY n.g ORDER BY c, sk",
    // Tree predicates and scalars.
    "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
    "ORDER BY p.acc",
    "SELECT p.acc, TREE_DEPTH(p.node_id) AS d FROM proteins p ORDER BY p.acc",
    "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
    "AND p.family = 'famA'",
};

TEST_F(EquivTest, CorpusMatchesNaiveAcrossPlansParallelismAndEncoding) {
  // Each plan's serial run over plain rows. The naive one is the reference;
  // the optimized one must hold the same rows (in the same order under
  // ORDER BY).
  std::vector<QueryResult> serial[2];
  for (bool optimized : {false, true}) {
    for (const char* sql : kCorpus) {
      PlannerOptions opts =
          optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
      opts.parallelism = 1;
      auto got = planner_->Run(sql, opts);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
      serial[optimized].push_back(std::move(got->result));
    }
  }
  for (size_t q = 0; q < std::size(kCorpus); ++q) {
    const std::string sql = kCorpus[q];
    ExpectIdentical(Canonical(serial[false][q], sql),
                    Canonical(serial[true][q], sql), sql + " [opt vs naive]");
  }
  // Parallelism and encoded segments change neither a plan's rows nor
  // their order: every other configuration reproduces its own plan's
  // serial plain run row for row. That order decides which rows a LIMIT
  // without ORDER BY keeps and the bits of floating-point aggregates.
  // Segments are small (4-16 rows) so every encoded scan crosses segment
  // boundaries and tombstones sit mid-segment.
  for (bool encoded : {false, true}) {
    if (encoded) {
      BuildSegments();
    } else {
      DropSegments();
    }
    for (size_t q = 0; q < std::size(kCorpus); ++q) {
      const std::string sql = kCorpus[q];
      for (bool optimized : {false, true}) {
        for (int par : {1, 4}) {
          if (!encoded && par == 1) continue;  // the serial run itself
          PlannerOptions opts =
              optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
          opts.parallelism = par;
          auto got = planner_->Run(sql, opts);
          ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
          ExpectIdentical(serial[optimized][q], got->result,
                          sql + " [" + (optimized ? "opt" : "naive") +
                              " par=" + std::to_string(par) +
                              (encoded ? " encoded]" : " plain]"));
        }
      }
    }
  }
}

TEST_F(EquivTest, ExplainAnalyzeReportsEncodedScan) {
  const char* sql = "EXPLAIN ANALYZE SELECT n.k FROM nums n WHERE n.s = 's2'";
  ASSERT_TRUE(nums_->BuildEncodedSegments().ok());
  auto encoded = planner_->Run(sql, PlannerOptions());
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  // The scan label carries the per-column encodings and the stats line the
  // encoded bytes actually read.
  EXPECT_NE(encoded->analyzed_plan.find("[encoded:"), std::string::npos)
      << encoded->analyzed_plan;
  EXPECT_NE(encoded->analyzed_plan.find("bytes="), std::string::npos)
      << encoded->analyzed_plan;

  // The plain scan reports the bytes of the rows it read.
  nums_->DropEncodedSegments();
  auto plain = planner_->Run(sql, PlannerOptions());
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->analyzed_plan.find("[encoded:"), std::string::npos)
      << plain->analyzed_plan;
  EXPECT_NE(plain->analyzed_plan.find("bytes="), std::string::npos)
      << plain->analyzed_plan;
  EXPECT_GT(plain->stats.bytes_scanned, 0);
}

TEST_F(EquivTest, EncodedScanFinishesUnderMemoryBudget) {
  // Direct encoded execution only materializes surviving rows: a selective
  // scan over a string-heavy table finishes under a per-query hard limit
  // far below the table's size, and matches the unbudgeted plain run.
  auto schema = Schema::Create({{"tag", ValueType::kString, false},
                                {"payload", ValueType::kString, false}});
  Table wide("wide", *schema);
  const std::string filler(120, 'x');
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(wide.Insert({Value::String(i % 400 == 0 ? "hit" : "miss"),
                             Value::String(filler +
                                           std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE(wide.Analyze().ok());
  ASSERT_TRUE(catalog_.Register(&wide).ok());
  const char* sql = "SELECT w.payload FROM wide w WHERE w.tag = 'hit'";

  obs::MemoryTracker tracker("query", nullptr, 0, 48 * 1024);
  QueryContext ctx;
  ctx.memory = &tracker;
  ASSERT_TRUE(wide.BuildEncodedSegments().ok());
  auto encoded = planner_->Run(sql, PlannerOptions(), &ctx);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(encoded->result.rows.size(), 10u);

  wide.DropEncodedSegments();
  auto unlimited = planner_->Run(sql, PlannerOptions());
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  ExpectIdentical(unlimited->result, encoded->result, sql);
}

TEST_F(EquivTest, DistinctChargesItsSetAgainstTheHardLimit) {
  // DISTINCT keeps every key it has seen. Over ~750 KB of distinct keys
  // the set must abort at a 48 KB per-query hard limit even though the
  // consumer keeps none of the rows — mid-stream, within one charge chunk,
  // not after the whole set is resident.
  auto schema = Schema::Create({{"payload", ValueType::kString, false}});
  Table wide("wide", *schema);
  for (int i = 0; i < 4000; ++i) {
    std::string payload = std::to_string(i);
    payload.resize(120, 'x');
    ASSERT_TRUE(wide.Insert({Value::String(std::move(payload))}).ok());
  }
  ExecStats stats;
  DistinctOp distinct(
      std::make_unique<SeqScanOp>(&wide, "w", nullptr, EvalContext{}, &stats));
  obs::MemoryTracker tracker("query", nullptr, 0, 48 * 1024);
  QueryContext ctx;
  ctx.memory = &tracker;
  distinct.SetQueryContext(&ctx);
  ASSERT_TRUE(distinct.Open().ok());
  Row row;
  int emitted = 0;
  util::Status status;
  for (;;) {
    auto more = distinct.Next(&row);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!*more) break;
    ++emitted;
  }
  EXPECT_TRUE(status.IsResourceExhausted()) << status;
  EXPECT_LT(emitted, 1000);
}

TEST_F(EquivTest, RuntimeErrorsAgreeAcrossPlansAndEncoding) {
  // Row 20 of nums has v == 0.0, so both statements divide by zero under
  // every plan. The second one's scan predicate runs on the encoded form
  // when segments exist.
  for (const char* sql : {"SELECT 1.0 / n.v AS q FROM nums n",
                          "SELECT 1.0 / n.v AS q FROM nums n WHERE n.k >= 0"}) {
    std::string ref_error;
    for (bool encoded : {false, true}) {
      if (encoded) {
        BuildSegments();
      } else {
        DropSegments();
      }
      for (bool optimized : {false, true}) {
        PlannerOptions opts =
            optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
        auto outcome = planner_->Run(sql, opts);
        const std::string tag = std::string(sql) +
                                (optimized ? " [opt" : " [naive") +
                                (encoded ? " encoded]" : " plain]");
        ASSERT_FALSE(outcome.ok()) << tag;
        if (ref_error.empty()) {
          ref_error = outcome.status().ToString();
        } else {
          EXPECT_EQ(outcome.status().ToString(), ref_error) << tag;
        }
      }
    }
  }
}

// ------------------------------------------------------------- cancellation

TEST_F(EquivTest, MidScanCancellationStopsScan) {
  // Deterministic mid-stream cancel: pull two rows, flip the flag, and the
  // scan must abort at its next checkpoint (every 64 Next() calls) instead
  // of running to the end of the table.
  auto schema = Schema::Create({{"k", ValueType::kInt64, false}});
  Table big("big", *schema);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(big.Insert({Value::Int64(i)}).ok());
  }
  ExecStats stats;
  SeqScanOp scan(&big, "b", nullptr, {}, &stats);
  std::atomic<bool> cancel{false};
  QueryContext ctx;
  ctx.cancel = &cancel;
  scan.SetQueryContext(&ctx);
  ASSERT_TRUE(scan.Open().ok());
  Row row;
  ASSERT_TRUE(scan.Next(&row).ok());
  ASSERT_TRUE(scan.Next(&row).ok());
  cancel.store(true);
  int emitted = 0;
  util::Status status;
  for (;;) {
    auto more = scan.Next(&row);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "scan ran to the end despite the cancel";
    ++emitted;
  }
  EXPECT_TRUE(status.IsCancelled()) << status;
  EXPECT_LT(emitted, 64);
}

TEST_F(EquivTest, CancellationMidQuery) {
  // Mirrors server_test's mid-scan cancel without the serving layer: a
  // cubic nested-loop join far too large to finish before the flag flips.
  auto bschema = Schema::Create({{"k", ValueType::kInt64, false}});
  Table big("big", *bschema);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(big.Insert({Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(big.Analyze().ok());
  ASSERT_TRUE(catalog_.Register(&big).ok());

  std::atomic<bool> cancel{false};
  QueryContext ctx;
  ctx.cancel = &cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(true);
  });
  auto outcome = planner_->Run(
      "SELECT COUNT(*) AS n FROM big b1, big b2, big b3 "
      "WHERE b1.k < b2.k AND b2.k < b3.k",
      PlannerOptions(), &ctx);
  canceller.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCancelled()) << outcome.status();
}

}  // namespace
}  // namespace query
}  // namespace drugtree
