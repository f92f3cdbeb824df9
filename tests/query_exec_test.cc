// End-to-end query execution tests over hand-built tables, including the
// naive-vs-optimized equivalence property that underpins E1/E2.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "obs/resource_tracker.h"
#include "phylo/newick.h"
#include "query/planner.h"
#include "util/rng.h"

namespace drugtree {
namespace query {
namespace {

using storage::IndexKind;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Balanced 4-leaf tree for tree predicates.
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
    struct Act {
      const char* acc;
      const char* lig;
      double aff;
    };
    for (const Act& act : std::initializer_list<Act>{
             {"a", "L1", 10},
             {"a", "L2", 500},
             {"b", "L1", 20},
             {"c", "L3", 5},
             {"c", "L1", 900},
             {"d", "L2", 50},
         }) {
      ASSERT_TRUE(activities_
                      ->Insert({Value::String(act.acc), Value::String(act.lig),
                                Value::Double(act.aff)})
                      .ok());
    }
    auto lschema = Schema::Create({{"lig", ValueType::kString, false},
                                   {"mw", ValueType::kDouble, false}});
    ligands_ = std::make_unique<Table>("ligands", *lschema);
    for (const char* lig : {"L1", "L2", "L3"}) {
      ASSERT_TRUE(ligands_
                      ->Insert({Value::String(lig),
                                Value::Double(100.0 + lig[1] * 1.0)})
                      .ok());
    }
    ASSERT_TRUE(proteins_->Analyze().ok());
    ASSERT_TRUE(activities_->Analyze().ok());
    ASSERT_TRUE(ligands_->Analyze().ok());

    ASSERT_TRUE(catalog_.Register(proteins_.get()).ok());
    ASSERT_TRUE(catalog_.Register(activities_.get()).ok());
    ASSERT_TRUE(catalog_.Register(ligands_.get()).ok());
    catalog_.SetTree(&tree_, index_.get());
    ASSERT_TRUE(catalog_.BindTree("proteins", {"node_id", "pre", ""}).ok());

    result_cache_ = std::make_unique<ResultCache>(1 << 20);
    planner_ = std::make_unique<Planner>(&catalog_, result_cache_.get());
  }

  QueryResult Run(const std::string& sql,
                  PlannerOptions opts = PlannerOptions::Optimized()) {
    auto outcome = planner_->Run(sql, opts);
    EXPECT_TRUE(outcome.ok()) << sql << ": " << outcome.status();
    return outcome.ok() ? outcome->result : QueryResult{};
  }

  phylo::Tree tree_;
  std::unique_ptr<phylo::TreeIndex> index_;
  std::unique_ptr<Table> proteins_, activities_, ligands_;
  Catalog catalog_;
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(ExecTest, SimpleProjection) {
  auto r = Run("SELECT p.acc FROM proteins p");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"p.acc"}));
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(ExecTest, FilterEquality) {
  auto r = Run("SELECT p.acc FROM proteins p WHERE p.family = 'famA'");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[1][0].AsString(), "b");
}

TEST_F(ExecTest, ComputedProjection) {
  auto r = Run("SELECT a.aff * 2 AS double_aff FROM activities a "
               "WHERE a.acc = 'a' ORDER BY double_aff");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(r.rows[1][0].AsDouble(), 1000.0);
}

TEST_F(ExecTest, JoinTwoTables) {
  auto r = Run(
      "SELECT p.acc, a.aff FROM proteins p JOIN activities a "
      "ON p.acc = a.acc ORDER BY a.aff");
  EXPECT_EQ(r.rows.size(), 6u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(r.rows[5][1].AsDouble(), 900.0);
}

TEST_F(ExecTest, ThreeWayJoin) {
  auto r = Run(
      "SELECT p.acc, l.lig FROM proteins p "
      "JOIN activities a ON p.acc = a.acc "
      "JOIN ligands l ON a.lig = l.lig "
      "WHERE a.aff < 100 ORDER BY p.acc, l.lig");
  // a-L1(10), b-L1(20), c-L3(5), d-L2(50).
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[0][1].AsString(), "L1");
  EXPECT_EQ(r.rows[2][0].AsString(), "c");
  EXPECT_EQ(r.rows[2][1].AsString(), "L3");
}

TEST_F(ExecTest, CrossJoinWithoutCondition) {
  auto r = Run("SELECT p.acc, l.lig FROM proteins p, ligands l");
  EXPECT_EQ(r.rows.size(), 12u);  // 4 x 3
}

TEST_F(ExecTest, GroupByAggregates) {
  auto r = Run(
      "SELECT p.family, COUNT(*) AS n, MIN(a.aff) AS best, MAX(a.aff) AS "
      "worst, AVG(a.aff) AS mean, SUM(a.aff) AS total "
      "FROM proteins p JOIN activities a ON p.acc = a.acc "
      "GROUP BY p.family ORDER BY p.family");
  ASSERT_EQ(r.rows.size(), 2u);
  // famA: a(10,500), b(20) -> n=3 best=10 worst=500 sum=530.
  EXPECT_EQ(r.rows[0][0].AsString(), "famA");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 500.0);
  EXPECT_NEAR(r.rows[0][4].AsDouble(), 530.0 / 3, 1e-9);
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 530.0);
  // famB: c(5,900), d(50) -> n=3.
  EXPECT_EQ(r.rows[1][1].AsInt64(), 3);
}

TEST_F(ExecTest, GlobalAggregateWithoutGroupBy) {
  auto r = Run("SELECT COUNT(*) AS n, AVG(a.aff) AS m FROM activities a");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 6);
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 1485.0 / 6, 1e-9);
}

TEST_F(ExecTest, GlobalAggregateOverEmptyInput) {
  auto r = Run("SELECT COUNT(*) AS n FROM activities a WHERE a.aff < 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 0);
}

TEST_F(ExecTest, OrderByDescAndLimit) {
  auto r = Run(
      "SELECT a.aff FROM activities a ORDER BY a.aff DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 900.0);
  EXPECT_DOUBLE_EQ(r.rows[1][0].AsDouble(), 500.0);
}

TEST_F(ExecTest, LimitZero) {
  auto r = Run("SELECT a.aff FROM activities a LIMIT 0");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecTest, SubtreePredicateSelectsClade) {
  auto r = Run(
      "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
      "ORDER BY p.acc");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[1][0].AsString(), "b");
}

TEST_F(ExecTest, SubtreeByNodeIdLiteral) {
  phylo::NodeId y = tree_.FindByName("y");
  auto r = Run("SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, " +
               std::to_string(y) + ") ORDER BY p.acc");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "c");
  EXPECT_EQ(r.rows[1][0].AsString(), "d");
}

TEST_F(ExecTest, SubtreeOfRootSelectsEverything) {
  auto r = Run("SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'r')");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(ExecTest, TreeDepthScalar) {
  auto r = Run(
      "SELECT p.acc, TREE_DEPTH(p.node_id) AS d FROM proteins p "
      "ORDER BY p.acc LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 2);
}

TEST_F(ExecTest, IsNullPredicate) {
  ASSERT_TRUE(proteins_
                  ->Insert({Value::String("orphan"), Value::String("famC"),
                            Value::Null(), Value::Null()})
                  .ok());
  catalog_.BumpEpoch();
  auto r = Run("SELECT p.acc FROM proteins p WHERE p.node_id IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "orphan");
  auto r2 = Run("SELECT p.acc FROM proteins p WHERE p.node_id IS NOT NULL");
  EXPECT_EQ(r2.rows.size(), 4u);
}

TEST_F(ExecTest, NaiveAndOptimizedAgree) {
  const char* queries[] = {
      "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
      "ORDER BY p.acc",
      "SELECT p.acc, a.aff FROM proteins p JOIN activities a ON "
      "p.acc = a.acc WHERE a.aff < 100 ORDER BY p.acc, a.aff",
      "SELECT p.family, COUNT(*) AS n FROM proteins p JOIN activities a ON "
      "p.acc = a.acc GROUP BY p.family ORDER BY p.family",
      "SELECT p.acc, l.lig FROM proteins p JOIN activities a ON p.acc = "
      "a.acc JOIN ligands l ON a.lig = l.lig WHERE SUBTREE(p.node_id, 'y') "
      "ORDER BY p.acc, l.lig",
  };
  for (const char* sql : queries) {
    auto naive = Run(sql, PlannerOptions::Naive());
    auto optimized = Run(sql, PlannerOptions::Optimized());
    ASSERT_EQ(naive.rows.size(), optimized.rows.size()) << sql;
    for (size_t i = 0; i < naive.rows.size(); ++i) {
      EXPECT_EQ(naive.rows[i], optimized.rows[i]) << sql << " row " << i;
    }
  }
}

TEST_F(ExecTest, IndexScanChosenAndCorrect) {
  const std::string sql =
      "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
      "ORDER BY p.acc";
  PlannerOptions opts = PlannerOptions::Optimized();
  EXPECT_EQ(Run(sql, opts).rows.size(), 2u);
  auto explained = planner_->Run("EXPLAIN " + sql, opts);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->physical_plan.find("IndexScan"), std::string::npos)
      << explained->physical_plan;
  // The naive plan instead scans sequentially.
  auto naive = planner_->Run("EXPLAIN " + sql, PlannerOptions::Naive());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->physical_plan.find("IndexScan"), std::string::npos);
  EXPECT_NE(naive->physical_plan.find("SeqScan"), std::string::npos);
}

TEST_F(ExecTest, PlanTextsRenderedOnlyForExplain) {
  const std::string sql = "SELECT p.acc FROM proteins p ORDER BY p.acc";
  auto plain = planner_->Run(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->logical_plan.empty());
  EXPECT_TRUE(plain->physical_plan.empty());
  auto analyzed =
      planner_->Run("EXPLAIN ANALYZE " + sql, PlannerOptions::Optimized());
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->logical_plan.find("Scan proteins"), std::string::npos);
  EXPECT_NE(analyzed->physical_plan.find("SeqScan"), std::string::npos);
}

TEST_F(ExecTest, HashJoinVsNestedLoopSameRows) {
  PlannerOptions hash = PlannerOptions::Optimized();
  PlannerOptions nlj = PlannerOptions::Optimized();
  nlj.enable_hash_join = false;
  const std::string sql =
      "SELECT p.acc, a.lig FROM proteins p JOIN activities a ON "
      "p.acc = a.acc ORDER BY p.acc, a.lig";
  auto h = planner_->Run("EXPLAIN " + sql, hash);
  auto n = planner_->Run("EXPLAIN " + sql, nlj);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_NE(h->physical_plan.find("HashJoin"), std::string::npos);
  EXPECT_NE(n->physical_plan.find("NestedLoopJoin"), std::string::npos);
  EXPECT_EQ(Run(sql, hash).rows, Run(sql, nlj).rows);
}

TEST_F(ExecTest, ResultCacheHitSkipsExecution) {
  PlannerOptions opts = PlannerOptions::Optimized();
  opts.use_result_cache = true;
  const char* sql = "SELECT p.acc FROM proteins p ORDER BY p.acc";
  auto first = planner_->Run(sql, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_result_cache);
  auto second = planner_->Run(sql, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_result_cache);
  EXPECT_EQ(second->result.rows, first->result.rows);
  // Textually different but canonically identical query also hits.
  auto third = planner_->Run("select  p.acc  from proteins p order by p.acc",
                             opts);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->from_result_cache);
}

TEST_F(ExecTest, EpochBumpInvalidatesResultCache) {
  PlannerOptions opts = PlannerOptions::Optimized();
  opts.use_result_cache = true;
  const char* sql = "SELECT COUNT(*) AS n FROM proteins p";
  auto first = planner_->Run(sql, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(proteins_
                  ->Insert({Value::String("fresh"), Value::String("famZ"),
                            Value::Null(), Value::Null()})
                  .ok());
  catalog_.BumpEpoch();
  auto second = planner_->Run(sql, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_result_cache);
  EXPECT_EQ(second->result.rows[0][0].AsInt64(),
            first->result.rows[0][0].AsInt64() + 1);
}

TEST_F(ExecTest, ExecStatsPopulated) {
  auto outcome = planner_->Run("SELECT p.acc FROM proteins p",
                               PlannerOptions::Naive());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.rows_scanned, 4);
}

TEST_F(ExecTest, SemanticErrorsSurface) {
  EXPECT_TRUE(planner_->Run("SELECT nope FROM proteins p", {})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(planner_->Run("SELECT p.acc FROM missing p", {})
                  .status()
                  .IsNotFound());
}

TEST_F(ExecTest, ResultToStringRenders) {
  auto r = Run("SELECT p.acc FROM proteins p ORDER BY p.acc LIMIT 2");
  std::string text = r.ToString();
  EXPECT_NE(text.find("p.acc"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
}

// ------------------------------------------------------------------ sorting

/// `vals`: ids 0..n-1 with tied and NULL ints (k), a zero double at id 40
/// (v), tied strings (s) and NULL strings (g).
std::unique_ptr<Table> MakeVals(int n) {
  auto schema = Schema::Create({{"id", ValueType::kInt64, false},
                                {"k", ValueType::kInt64, true},
                                {"v", ValueType::kDouble, false},
                                {"s", ValueType::kString, false},
                                {"g", ValueType::kString, true}});
  auto table = std::make_unique<Table>("vals", *schema);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    ->Insert({Value::Int64(i),
                              i % 5 == 2 ? Value::Null() : Value::Int64(i % 7),
                              Value::Double(i * 0.25 - 10.0),
                              Value::String("s" + std::to_string(i % 4)),
                              i % 3 == 0 ? Value::Null()
                                         : Value::String(i % 2 ? "odd" : "even")})
                    .ok());
  }
  EXPECT_TRUE(table->Analyze().ok());
  return table;
}

class SortExecTest : public ExecTest {
 protected:
  void SetUp() override {
    ExecTest::SetUp();
    vals_ = MakeVals(200);
    ASSERT_TRUE(catalog_.Register(vals_.get()).ok());
  }

  std::unique_ptr<Table> vals_;
};

TEST_F(SortExecTest, UnboundedSortEqualsStableSortOfItsInput) {
  // The statement without ORDER BY yields the sort's input in its input
  // order; stable-sorting it by Value::Compare must give the sorted
  // statement's rows, ties in input order.
  struct Case {
    const char* order_by;
    std::vector<std::pair<size_t, bool>> keys;  // output column, ascending
  };
  const std::string select = "SELECT t.k, t.s, t.v, t.g, t.id FROM vals t";
  for (const Case& c : std::initializer_list<Case>{
           {"t.k", {{0, true}}},
           {"t.k DESC", {{0, false}}},
           {"t.s, t.k DESC", {{1, true}, {0, false}}},
           {"t.g DESC, t.s, t.v", {{3, false}, {1, true}, {2, true}}},
       }) {
    for (const PlannerOptions& opts :
         {PlannerOptions::Optimized(), PlannerOptions::Naive()}) {
      QueryResult expected = Run(select, opts);
      std::stable_sort(expected.rows.begin(), expected.rows.end(),
                       [&c](const Row& a, const Row& b) {
                         for (const auto& [col, ascending] : c.keys) {
                           const int cmp = a[col].Compare(b[col]);
                           if (cmp != 0) return ascending ? cmp < 0 : cmp > 0;
                         }
                         return false;
                       });
      EXPECT_EQ(Run(select + " ORDER BY " + c.order_by, opts).rows,
                expected.rows)
          << c.order_by;
    }
  }
}

TEST_F(SortExecTest, NanKeysSortLikeAStableSortAndStayInBounds) {
  // NaN compares equal to every value, so the keys are not totally
  // ordered. The full sort still matches a stable sort of its input, and
  // the Top-N path stays in bounds (this test runs under ASan).
  auto schema = Schema::Create({{"id", ValueType::kInt64, false},
                                {"x", ValueType::kDouble, false}});
  Table nans("nans", *schema);
  for (int i = 0; i < 300; ++i) {
    const double x = i % 3 == 1 ? std::nan("") : (i * 37 % 101) * 1.0;
    ASSERT_TRUE(nans.Insert({Value::Int64(i), Value::Double(x)}).ok());
  }
  ASSERT_TRUE(catalog_.Register(&nans).ok());
  const std::string select = "SELECT n.id, n.x FROM nans n";
  QueryResult expected = Run(select);
  std::stable_sort(expected.rows.begin(), expected.rows.end(),
                   [](const Row& a, const Row& b) {
                     return a[1].Compare(b[1]) < 0;
                   });
  const QueryResult sorted = Run(select + " ORDER BY n.x");
  ASSERT_EQ(sorted.rows.size(), expected.rows.size());
  for (size_t i = 0; i < sorted.rows.size(); ++i) {
    EXPECT_EQ(sorted.rows[i][0].AsInt64(), expected.rows[i][0].AsInt64())
        << "row " << i;
  }
  EXPECT_EQ(Run(select + " ORDER BY n.x DESC LIMIT 7").rows.size(), 7u);
}

TEST_F(SortExecTest, FailingKeyFailsTheStatementUnderAnyLimit) {
  // v is 0.0 at id 40, so the key fails there. Every row's key is
  // evaluated, under any LIMIT, LIMIT 0 included.
  const std::string sql = "SELECT t.id, t.v FROM vals t ORDER BY 1.0 / t.v";
  auto full = planner_->Run(sql, PlannerOptions::Optimized());
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().ToString(), "InvalidArgument: division by zero");
  for (const char* limit : {" LIMIT 0", " LIMIT 1", " LIMIT 5"}) {
    for (const PlannerOptions& opts :
         {PlannerOptions::Optimized(), PlannerOptions::Naive()}) {
      auto got = planner_->Run(sql + limit, opts);
      ASSERT_FALSE(got.ok()) << limit;
      EXPECT_EQ(got.status().ToString(), full.status().ToString()) << limit;
    }
  }
}

TEST_F(SortExecTest, InputErrorWinsOverKeyError) {
  // The key fails on every row (NOT of an integer) and the input fails at
  // id 50. A sort reports its input's error first, bounded or not.
  const std::string sql =
      "SELECT t.id FROM vals t WHERE 10 / (t.id - 50) > -1000 "
      "ORDER BY NOT t.id";
  for (const char* limit : {"", " LIMIT 0", " LIMIT 1", " LIMIT 5"}) {
    for (const PlannerOptions& opts :
         {PlannerOptions::Optimized(), PlannerOptions::Naive()}) {
      auto got = planner_->Run(sql + limit, opts);
      ASSERT_FALSE(got.ok()) << limit;
      EXPECT_EQ(got.status().ToString(), "InvalidArgument: division by zero")
          << limit;
    }
  }
  // Without the failing input, the key's own error surfaces.
  auto key_only = planner_->Run("SELECT t.id FROM vals t ORDER BY NOT t.id "
                                "LIMIT 1",
                                PlannerOptions::Optimized());
  ASSERT_FALSE(key_only.ok());
  EXPECT_EQ(key_only.status().ToString(), "InvalidArgument: NOT of non-boolean");
}

TEST_F(ExecTest, CancellationStopsTopNMidDrain) {
  // The pattern of CancellationMidQuery, under ORDER BY ... LIMIT: the
  // bounded sort drains a cubic cross join far too large to finish before
  // the flag flips, and must stop with kCancelled.
  auto schema = Schema::Create({{"k", ValueType::kInt64, false}});
  Table big("big", *schema);
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
      "SELECT b1.k, b2.k, b3.k FROM big b1, big b2, big b3 "
      "WHERE b1.k < b2.k AND b2.k < b3.k ORDER BY b3.k DESC, b1.k LIMIT 5",
      PlannerOptions(), &ctx);
  canceller.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCancelled()) << outcome.status();
}

TEST_F(ExecTest, TopNChargesOnlyTheRowsItKeeps) {
  // Sorting the whole table breaches a 48 KiB per-query limit; keeping 5
  // rows charges at most those 5 rows' bytes (plus the key slots) and
  // returns the full sort's first 5 rows.
  auto schema = Schema::Create({{"id", ValueType::kInt64, false},
                                {"payload", ValueType::kString, false}});
  Table wide("wide", *schema);
  const std::string filler(120, 'x');
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(wide.Insert({Value::Int64(i),
                             Value::String(filler + std::to_string(i % 997))})
                    .ok());
  }
  ASSERT_TRUE(wide.Analyze().ok());
  ASSERT_TRUE(catalog_.Register(&wide).ok());
  const std::string sql =
      "SELECT w.id, w.payload FROM wide w ORDER BY w.payload DESC";
  const int64_t max_row_bytes = static_cast<int64_t>(
      sizeof(Row) + 2 * sizeof(Value) + filler.size() + 3);

  obs::MemoryTracker full_tracker("query", nullptr, 0, 48 * 1024);
  QueryContext full_ctx;
  full_ctx.memory = &full_tracker;
  auto full = planner_->Run(sql, PlannerOptions(), &full_ctx);
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsResourceExhausted()) << full.status();

  // The plan is driven directly, so the tracker sees the sort's charge
  // alone (the executor would add the result buffer's).
  ExecStats stats;
  auto top = planner_->Plan(sql + " LIMIT 5", PlannerOptions(), &stats);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ((*top)->Describe().rfind("Sort w.payload DESC [top 5]", 0), 0u)
      << (*top)->Describe();
  obs::MemoryTracker tracker("query", nullptr, 0, 48 * 1024);
  QueryContext ctx;
  ctx.memory = &tracker;
  (*top)->SetQueryContext(&ctx);
  ASSERT_TRUE((*top)->Open().ok());
  std::vector<Row> rows;
  Row row;
  for (;;) {
    auto more = (*top)->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    rows.push_back(row);
  }
  EXPECT_GT(tracker.peak(), 0);
  EXPECT_LE(tracker.peak(),
            5 * max_row_bytes + static_cast<int64_t>(6 * sizeof(Value)));

  QueryResult unlimited = Run(sql);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i], unlimited.rows[i]) << "row " << i;
  }
}

TEST_F(ExecTest, AggregatesOverStringsAndNullOnlyGroups) {
  // MIN/MAX over strings, a group whose arguments are all NULL, and
  // computed arguments; groups come out in order of first appearance.
  auto schema = Schema::Create({{"grp", ValueType::kString, false},
                                {"name", ValueType::kString, true},
                                {"x", ValueType::kInt64, true},
                                {"y", ValueType::kDouble, true}});
  Table agg("agg", *schema);
  struct In {
    const char* grp;
    const char* name;
    std::optional<int64_t> x;
    std::optional<double> y;
  };
  for (const In& in : std::initializer_list<In>{
           {"a", "pear", 3, 1.5},
           {"b", nullptr, std::nullopt, std::nullopt},
           {"a", "apple", 7, std::nullopt},
           {"c", "fig", std::nullopt, 2.0},
           {"b", nullptr, std::nullopt, std::nullopt},
           {"a", "zucchini", -2, 0.5},
           {"c", "banana", 4, std::nullopt},
       }) {
    ASSERT_TRUE(agg.Insert({Value::String(in.grp),
                            in.name ? Value::String(in.name) : Value::Null(),
                            in.x ? Value::Int64(*in.x) : Value::Null(),
                            in.y ? Value::Double(*in.y) : Value::Null()})
                    .ok());
  }
  ASSERT_TRUE(catalog_.Register(&agg).ok());
  const QueryResult r = Run(
      "SELECT t.grp, COUNT(*) AS n, COUNT(t.name) AS nn, MIN(t.name) AS lo, "
      "MAX(t.name) AS hi, SUM(t.x) AS sx, SUM(t.x * 2) AS sx2, "
      "AVG(t.y) AS ay, MIN(t.x) AS mx, MAX(t.y) AS my FROM agg t "
      "GROUP BY t.grp");
  const Value null = Value::Null();
  const std::vector<Row> expected = {
      {Value::String("a"), Value::Int64(3), Value::Int64(3),
       Value::String("apple"), Value::String("zucchini"), Value::Int64(8),
       Value::Int64(16), Value::Double(1.0), Value::Int64(-2),
       Value::Double(1.5)},
      {Value::String("b"), Value::Int64(2), Value::Int64(0), null, null, null,
       null, null, null, null},
      {Value::String("c"), Value::Int64(2), Value::Int64(2),
       Value::String("banana"), Value::String("fig"), Value::Int64(4),
       Value::Int64(8), Value::Double(2.0), Value::Int64(4),
       Value::Double(2.0)},
  };
  ASSERT_EQ(r.rows.size(), expected.size());
  for (size_t g = 0; g < expected.size(); ++g) {
    ASSERT_EQ(r.rows[g].size(), expected[g].size());
    for (size_t c = 0; c < expected[g].size(); ++c) {
      EXPECT_EQ(r.rows[g][c].type(), expected[g][c].type())
          << "group " << g << " column " << c;
      EXPECT_EQ(r.rows[g][c], expected[g][c])
          << "group " << g << " column " << c << ": "
          << r.rows[g][c].ToString();
    }
  }
}

// Property: for randomized single-table range predicates, index-backed plans
// must match naive full scans exactly.
class IndexEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalence, RangePredicatesAgree) {
  // Fresh mini-catalog with a numeric indexed column.
  auto schema = Schema::Create(
      {{"k", ValueType::kInt64, false}, {"v", ValueType::kDouble, false}});
  ASSERT_TRUE(schema.ok());
  Table table("nums", *schema);
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 9);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Int64(rng.UniformRange(0, 100)),
                             Value::Double(rng.NextDouble())})
                    .ok());
  }
  ASSERT_TRUE(table.CreateIndex("k", IndexKind::kBTree).ok());
  ASSERT_TRUE(table.Analyze().ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(&table).ok());
  Planner planner(&catalog);
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = rng.UniformRange(0, 100);
    int64_t hi = rng.UniformRange(0, 100);
    if (lo > hi) std::swap(lo, hi);
    std::string sql = "SELECT n.k FROM nums n WHERE n.k >= " +
                      std::to_string(lo) + " AND n.k <= " +
                      std::to_string(hi) + " ORDER BY n.k";
    auto fast = planner.Run(sql, PlannerOptions::Optimized());
    auto slow = planner.Run(sql, PlannerOptions::Naive());
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast->result.rows, slow->result.rows) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence, ::testing::Range(0, 4));

}  // namespace
}  // namespace query
}  // namespace drugtree
