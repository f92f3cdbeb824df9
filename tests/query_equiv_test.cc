// Engine equivalence tests. The naive plan defines the right answer: the
// whole query corpus runs under the optimized and naive plans, at
// parallelism {1, 4}, with encoded segments dropped and built (the
// combination harness of Hyrise's tpch_test). Every run matches its own
// plan's serial run over plain rows bit for bit and row for row, and the
// optimized plan's rows match the naive plan's; every ORDER BY ... LIMIT k
// returns the first k rows of its full sort. Also pins the EXPLAIN plan
// texts against recorded goldens, ColumnVector's exact round trip, EXPLAIN
// ANALYZE's scan bytes, runtime-error agreement, memory budgets, and
// mid-query cancellation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "clades.h"
#include "core/drugtree.h"
#include "core/workload.h"
#include "obs/resource_tracker.h"
#include "phylo/newick.h"
#include "query/executor.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/physical.h"
#include "query/plan_cache.h"
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
    // Projection pruning: SELECT * keeps every column; a column read only
    // by a residual filter, an aggregate argument or a joined table's
    // pushed-down predicate; one column selected twice; a scan that emits
    // no columns; a tree scalar over a join.
    "SELECT * FROM proteins p JOIN activities a ON p.acc = a.acc",
    "SELECT p.acc, a.lig FROM proteins p JOIN activities a "
    "ON p.acc = a.acc WHERE a.aff > p.pre * 20.0",
    "SELECT a.lig, AVG(p.pre) AS depth FROM proteins p JOIN activities a "
    "ON p.acc = a.acc GROUP BY a.lig ORDER BY a.lig",
    "SELECT a.lig, a.aff FROM activities a JOIN proteins p "
    "ON a.acc = p.acc WHERE p.family = 'famA'",
    "SELECT p.acc, p.acc AS again, a.aff FROM proteins p "
    "JOIN activities a ON p.acc = a.acc",
    "SELECT COUNT(*) AS n FROM nums n WHERE n.k > 3",
    "SELECT p.acc, a.lig, TREE_DEPTH(p.node_id) AS d FROM proteins p "
    "JOIN activities a ON p.acc = a.acc",
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

// Extra ORDER BY statements for the prefix oracle: tied keys, NULL keys
// (nums.k, nums.g), DESC, multi-key and computed orders. Kept out of the
// corpus so the plan goldens cover the corpus alone.
const char* kOrderCorpus[] = {
    "SELECT n.k, n.s FROM nums n ORDER BY n.k",
    "SELECT n.k, n.v FROM nums n ORDER BY n.k DESC",
    "SELECT n.s, n.v FROM nums n ORDER BY n.s",
    "SELECT n.s, n.k, n.v FROM nums n ORDER BY n.s, n.k DESC",
    "SELECT n.g, n.s, n.k FROM nums n ORDER BY n.g DESC, n.s, n.k",
    "SELECT n.k, n.v FROM nums n ORDER BY n.k + n.v DESC",
    "SELECT p.acc, a.lig FROM proteins p JOIN activities a "
    "ON p.acc = a.acc ORDER BY a.lig",
};

TEST_F(EquivTest, OrderByLimitIsAPrefixOfTheFullSort) {
  // ORDER BY ... LIMIT k keeps k rows in a bounded heap instead of sorting
  // everything. Its rows must be the first k of the same statement without
  // LIMIT, which sorts in full, under every plan and configuration.
  std::vector<std::string> statements;
  for (const char* sql : kCorpus) {
    std::string base = sql;
    if (base.find("ORDER BY") == std::string::npos) continue;
    const size_t limit = base.find(" LIMIT ");
    if (limit != std::string::npos) base.resize(limit);
    statements.push_back(base);
  }
  for (const char* sql : kOrderCorpus) statements.push_back(sql);
  for (bool encoded : {false, true}) {
    if (encoded) {
      BuildSegments();
    } else {
      DropSegments();
    }
    for (bool optimized : {false, true}) {
      for (int par : {1, 4}) {
        PlannerOptions opts =
            optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
        opts.parallelism = par;
        const std::string config = std::string(optimized ? " [opt" : " [naive") +
                                   " par=" + std::to_string(par) +
                                   (encoded ? " encoded]" : " plain]");
        for (const std::string& base : statements) {
          auto full = planner_->Run(base, opts);
          ASSERT_TRUE(full.ok()) << base << ": " << full.status();
          const size_t n = full->result.rows.size();
          for (size_t k : {size_t{0}, size_t{1}, size_t{2}, n - 1, n, n + 5}) {
            if (n == 0 && k == n - 1) continue;
            const std::string sql = base + " LIMIT " + std::to_string(k);
            auto top = planner_->Run(sql, opts);
            ASSERT_TRUE(top.ok()) << sql << ": " << top.status();
            QueryResult prefix = full->result;
            prefix.rows.resize(std::min(k, n));
            ExpectIdentical(prefix, top->result, sql + config);
          }
        }
      }
    }
  }
}

/// perfbench's small instance: the golden and workload statements run on
/// it.
util::Result<std::unique_ptr<core::DrugTree>> BuildSmallInstance(
    util::SimulatedClock* clock) {
  core::BuildOptions options;
  options.seed = 42;
  options.num_families = 6;
  options.taxa_per_family = 24;
  options.num_ligands = 300;
  options.activities_per_protein = 6.0;
  return core::DrugTree::Build(options, clock);
}

// Plan stability: the EXPLAIN logical and physical plans of the corpus and
// of the workload statements (every query kind at a root, mid and small
// clade, on the benchmark's small instance) under the optimized and the
// naive options must match tests/golden/plans.txt byte for byte. A change
// that alters plans on purpose re-records the file from the test's output
// (written next to the test binary on a mismatch) and says so.
TEST_F(EquivTest, PlansMatchGoldens) {
  std::string actual;
  auto record = [&actual](const std::string& sql, const auto& run) {
    for (bool optimized : {true, false}) {
      auto explained = run("EXPLAIN " + sql, optimized
                                                 ? PlannerOptions::Optimized()
                                                 : PlannerOptions::Naive());
      ASSERT_TRUE(explained.ok()) << sql << ": " << explained.status();
      actual += std::string("=== ") + (optimized ? "optimized" : "naive") +
                ": " + sql + "\n--- logical\n" + explained->logical_plan +
                "--- physical\n" + explained->physical_plan;
    }
  };
  for (const char* sql : kCorpus) {
    record(sql, [this](const std::string& s, const PlannerOptions& o) {
      return planner_->Run(s, o);
    });
  }

  util::SimulatedClock clock;
  auto dt = BuildSmallInstance(&clock);
  ASSERT_TRUE(dt.ok()) << dt.status();
  const Clades clades = PickClades(**dt);
  std::vector<std::string> sqls;
  for (core::QueryKind kind :
       {core::QueryKind::kSubtreeProteins, core::QueryKind::kSubtreeOverlay,
        core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
        core::QueryKind::kAncestorPath}) {
    for (phylo::NodeId node : {clades.root, clades.mid, clades.leaf_parent}) {
      std::string sql = core::MakeQuerySql(kind, node, (*dt)->tree(),
                                           core::WorkloadParams());
      if (std::find(sqls.begin(), sqls.end(), sql) == sqls.end()) {
        sqls.push_back(std::move(sql));
      }
    }
  }
  for (phylo::NodeId node : {clades.root, clades.mid, clades.leaf_parent}) {
    sqls.push_back((*dt)->OverlayQuerySql(node));
  }
  // A cacheless planner: through DrugTree::Query, a repeated shape would
  // print its cached plan's "plan: cached" line.
  Planner fresh((*dt)->catalog());
  for (const std::string& sql : sqls) {
    record(sql, [&fresh](const std::string& s, const PlannerOptions& o) {
      return fresh.Run(s, o);
    });
  }

  const std::string golden_path =
      std::string(DRUGTREE_TESTS_SOURCE_DIR) + "/golden/plans.txt";
  std::ifstream in(golden_path, std::ios::binary);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    const std::string actual_path =
        std::string(DRUGTREE_TESTS_BINARY_DIR) + "/plans.actual.txt";
    std::ofstream(actual_path, std::ios::binary) << actual;
    EXPECT_EQ(golden.str(), actual)
        << "plans differ from " << golden_path << "; the new plans are in "
        << actual_path;
  }
}

// ------------------------------------------------ lexer / parser agreement

/// Appends every literal node below `expr`.
void CollectLiterals(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kLiteral) out->push_back(expr);
  for (const auto& c : expr->children) CollectLiterals(c.get(), out);
}

/// The lexer's parameters equal, by ordinal, in value and in type, the
/// literals the parser tagged, and every ordinal is tagged.
void ExpectLexerAgreesWithParser(const std::string& sql) {
  auto lexed = Lex(sql);
  ASSERT_TRUE(lexed.ok()) << sql << ": " << lexed.status();
  auto stmt = ParseTokens(lexed->tokens);
  ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  std::vector<const Expr*> literals;
  for (const auto& item : stmt->select) CollectLiterals(item.expr.get(), &literals);
  CollectLiterals(stmt->where.get(), &literals);
  for (const auto& g : stmt->group_by) CollectLiterals(g.get(), &literals);
  for (const auto& k : stmt->order_by) CollectLiterals(k.expr.get(), &literals);
  std::vector<bool> tagged(lexed->params.size(), false);
  for (const Expr* literal : literals) {
    if (literal->param_index < 0) continue;
    const auto ordinal = static_cast<size_t>(literal->param_index);
    ASSERT_LT(ordinal, lexed->params.size()) << sql;
    const Value& param = lexed->params[ordinal];
    EXPECT_EQ(param.type(), literal->literal.type()) << sql << " ?" << ordinal;
    EXPECT_TRUE(param == literal->literal) << sql << " ?" << ordinal;
    tagged[ordinal] = true;
  }
  EXPECT_EQ(std::count(tagged.begin(), tagged.end(), true),
            static_cast<std::ptrdiff_t>(tagged.size()))
      << sql;
}

/// Runs `sql` twice through `cached` (the second run must hit) and checks
/// the hit's rows and EXPLAIN text against `fresh`, a cacheless planner.
void ExpectHitMatchesCacheless(const std::string& sql, Planner* cached,
                               Planner* fresh) {
  auto first = cached->Run(sql, PlannerOptions());
  ASSERT_TRUE(first.ok()) << sql << ": " << first.status();
  auto hit = cached->Run(sql, PlannerOptions());
  ASSERT_TRUE(hit.ok()) << sql << ": " << hit.status();
  EXPECT_TRUE(hit->from_plan_cache) << sql;
  auto want = fresh->Run(sql, PlannerOptions());
  ASSERT_TRUE(want.ok()) << sql << ": " << want.status();
  ASSERT_EQ(want->result.columns, hit->result.columns) << sql;
  EXPECT_EQ(want->result.rows, hit->result.rows) << sql;
  auto explained = cached->Run("EXPLAIN " + sql, PlannerOptions());
  auto want_explained = fresh->Run("EXPLAIN " + sql, PlannerOptions());
  ASSERT_TRUE(explained.ok() && want_explained.ok()) << sql;
  EXPECT_EQ(explained->logical_plan, want_explained->logical_plan) << sql;
  EXPECT_EQ(explained->physical_plan,
            "plan: cached\n" + want_explained->physical_plan)
      << sql;
}

// Every corpus and golden statement, and each workload query kind (and the
// served overlay) at every node of the small instance: the lexer and the
// parser agree on the parameters, and a plan-cache hit, which skips the
// parser, returns what a cacheless planner does.
TEST_F(EquivTest, LexerAndParserAgreeOnEveryStatement) {
  {
    PlanCache cache;
    Planner cached(&catalog_, nullptr, &cache);
    for (const char* sql : kCorpus) {
      ExpectLexerAgreesWithParser(sql);
      ExpectHitMatchesCacheless(sql, &cached, planner_.get());
    }
  }
  util::SimulatedClock clock;
  auto dt = BuildSmallInstance(&clock);
  ASSERT_TRUE(dt.ok()) << dt.status();
  const phylo::Tree& tree = (*dt)->tree();
  std::vector<std::string> sqls;
  std::set<std::string> seen;
  for (phylo::NodeId node = 0; node < static_cast<phylo::NodeId>(tree.NumNodes());
       ++node) {
    for (core::QueryKind kind :
         {core::QueryKind::kSubtreeProteins, core::QueryKind::kSubtreeOverlay,
          core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
          core::QueryKind::kAncestorPath}) {
      std::string sql =
          core::MakeQuerySql(kind, node, tree, core::WorkloadParams());
      if (seen.insert(sql).second) sqls.push_back(std::move(sql));
    }
    std::string overlay = (*dt)->OverlayQuerySql(node);
    if (seen.insert(overlay).second) sqls.push_back(std::move(overlay));
  }
  PlanCache cache;
  Planner cached((*dt)->catalog(), nullptr, &cache);
  Planner fresh((*dt)->catalog());
  for (const std::string& sql : sqls) {
    ExpectLexerAgreesWithParser(sql);
    ExpectHitMatchesCacheless(sql, &cached, &fresh);
  }
}

// Statement pairs that differ in shape get their own fingerprints; pairs
// that differ only in literal values (or their types) or in the EXPLAIN
// prefix share one. Either way each statement, run right after its
// partner on one cache, returns the naive plan's rows (or its error).
TEST_F(EquivTest, ShapePairsKeepTheirOwnPlans) {
  struct Pair {
    const char* a;
    const char* b;
    bool share;  // one fingerprint
  };
  const Pair pairs[] = {
      {"SELECT n.k FROM nums n ORDER BY n.k, n.v LIMIT 5",
       "SELECT n.k FROM nums n ORDER BY n.k, n.v LIMIT 6", false},
      {"SELECT n.k FROM nums n WHERE n.g IS NULL",
       "SELECT n.k FROM nums n WHERE n.g = NULL", false},
      {"SELECT n.k FROM nums n WHERE TRUE",
       "SELECT n.k FROM nums n WHERE FALSE", false},
      {"SELECT n.k FROM nums n WHERE n.v > -5.0",
       "SELECT n.k FROM nums n WHERE n.v > 5.0", false},
      {"SELECT n.k, n.v FROM nums n ORDER BY n.v ASC",
       "SELECT n.k, n.v FROM nums n ORDER BY n.v DESC", false},
      // An unaliased select item is named by its text; a group key's text
      // must match its select item.
      {"SELECT n.k + 1 FROM nums n", "SELECT n.k + 2 FROM nums n", false},
      {"SELECT n.k + 1 AS x, COUNT(*) AS c FROM nums n GROUP BY n.k + 1",
       "SELECT n.k + 1 AS x, COUNT(*) AS c FROM nums n GROUP BY n.k + 2",
       false},
      {"SELECT p.acc, a.aff FROM proteins p JOIN activities a "
       "ON p.acc = a.acc",
       "SELECT p.acc, a.aff FROM proteins p, activities a "
       "WHERE p.acc = a.acc",
       false},
      // One position as an int, a float and a string.
      {"SELECT n.k FROM nums n WHERE n.k = 3",
       "SELECT n.k FROM nums n WHERE n.k = 3.0", true},
      {"SELECT n.k FROM nums n WHERE n.k = 3.0",
       "SELECT n.k FROM nums n WHERE n.s = 's3'", false},
      {"SELECT n.s FROM nums n WHERE n.s = 's3'",
       "SELECT n.s FROM nums n WHERE n.s = 3", true},
      {"SELECT n.k FROM nums n WHERE n.v > 2.5 ORDER BY n.k",
       "SELECT n.k FROM nums n WHERE n.v > 7.5 ORDER BY n.k", true},
      {"SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x') "
       "ORDER BY p.acc",
       "EXPLAIN SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'y') "
       "ORDER BY p.acc",
       true},
  };
  for (const Pair& pair : pairs) {
    auto la = Lex(pair.a);
    auto lb = Lex(pair.b);
    ASSERT_TRUE(la.ok() && lb.ok()) << pair.a;
    EXPECT_EQ(la->fingerprint == lb->fingerprint, pair.share)
        << pair.a << " | " << pair.b;
    for (bool a_first : {true, false}) {
      PlanCache cache;
      Planner cached(&catalog_, nullptr, &cache);
      for (const char* sql : {a_first ? pair.a : pair.b,
                              a_first ? pair.b : pair.a}) {
        auto got = cached.Run(sql, PlannerOptions());
        if (Lex(sql)->explain != ExplainMode::kNone) {
          ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
          continue;
        }
        auto want = planner_->Run(sql, PlannerOptions::Naive());
        ASSERT_EQ(got.ok(), want.ok()) << sql;
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString()) << sql;
          continue;
        }
        ExpectIdentical(Canonical(want->result, sql),
                        Canonical(got->result, sql), sql);
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

TEST_F(EquivTest, EncodedScanDecodesAndCountsOnlyItsColumns) {
  // A 2-column statement filtering on one of its columns: the pruned scan
  // decodes n.k and n.s and nothing else, and counts exactly those two
  // columns' encoded bytes in every segment.
  ASSERT_TRUE(nums_->BuildEncodedSegments(16).ok());
  int64_t expected = 0;
  for (const storage::EncodedSegment& seg : nums_->encoded()->segments) {
    expected += static_cast<int64_t>(seg.columns[0].EncodedBytes() +
                                     seg.columns[2].EncodedBytes());
  }
  ASSERT_LT(expected,
            static_cast<int64_t>(nums_->encoded()->encoded_bytes));
  const char* sql = "SELECT n.k, n.s FROM nums n WHERE n.k > 3";
  auto analyzed = planner_->Run(std::string("EXPLAIN ANALYZE ") + sql,
                                PlannerOptions());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_EQ(analyzed->stats.bytes_scanned, expected);
  EXPECT_NE(analyzed->analyzed_plan.find(
                "SeqScan nums AS n [filter: (n.k > 3)] [columns: n.k, n.s] "
                "[encoded: "),
            std::string::npos)
      << analyzed->analyzed_plan;
  EXPECT_NE(analyzed->analyzed_plan.find(
                "bytes=" + std::to_string(expected) + " "),
            std::string::npos)
      << analyzed->analyzed_plan;

  // The operator itself: each row holds the two listed columns of a live
  // row that passes the filter, in table order.
  ExecStats stats;
  SeqScanOp scan(nums_.get(), "n",
                 std::make_shared<const Schema>(*ScanSchema(*nums_, "n")),
                 {0, 2},
                 Expr::Binary(BinaryOp::kGt, Expr::Column("n.k"),
                              Expr::Literal(Value::Int64(3))),
                 EvalContext{}, &stats);
  ASSERT_EQ(scan.schema().NumColumns(), 2u);
  EXPECT_EQ(scan.schema().column(1).name, "n.s");
  ASSERT_TRUE(scan.Open().ok());
  std::vector<Row> expected_rows;
  for (storage::RowId id = 0; id < nums_->NumRows(); ++id) {
    if (nums_->IsDeleted(id)) continue;
    const Row& row = nums_->row(id);
    if (!row[0].is_null() && row[0].AsInt64() > 3) {
      expected_rows.push_back({row[0], row[2]});
    }
  }
  Row row;
  size_t emitted = 0;
  for (;;) {
    auto more = scan.Next(&row);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    ASSERT_LT(emitted, expected_rows.size());
    EXPECT_EQ(row, expected_rows[emitted]) << "row " << emitted;
    ++emitted;
  }
  EXPECT_EQ(emitted, expected_rows.size());
  EXPECT_EQ(stats.bytes_scanned, expected);
}

TEST_F(EquivTest, PlainScanBytesAreRowHeadersPlusStrings) {
  // A plain scan's bytes_scanned is, per live row, the Row header with one
  // Value per column plus the bytes of the row's non-NULL strings. 3000
  // rows take the parallel scan path at parallelism 4.
  auto schema = Schema::Create({{"k", ValueType::kInt64, false},
                                {"s", ValueType::kString, true},
                                {"t", ValueType::kString, false}});
  Table strs("strs", *schema);
  std::vector<int64_t> row_bytes;
  for (int i = 0; i < 3000; ++i) {
    const size_t s_len = static_cast<size_t>(i % 5);
    const size_t t_len = static_cast<size_t>(i % 11);
    const bool s_null = i % 7 == 0;
    ASSERT_TRUE(strs.Insert({Value::Int64(i),
                             s_null ? Value::Null()
                                    : Value::String(std::string(s_len, 'x')),
                             Value::String(std::string(t_len, 'y'))})
                    .ok());
    row_bytes.push_back(static_cast<int64_t>(
        sizeof(Row) + 3 * sizeof(Value) + (s_null ? 0 : s_len) + t_len));
  }
  for (storage::RowId id : {4, 1500, 2999}) {
    ASSERT_TRUE(strs.Delete(id).ok());
    row_bytes[static_cast<size_t>(id)] = 0;
  }
  int64_t expected = 0;
  for (int64_t b : row_bytes) expected += b;
  ASSERT_TRUE(catalog_.Register(&strs).ok());
  for (int par : {1, 4}) {
    PlannerOptions opts;
    opts.parallelism = par;
    for (const char* sql : {"SELECT g.k FROM strs g",
                            "SELECT g.k FROM strs g WHERE g.k >= 0"}) {
      auto outcome = planner_->Run(sql, opts);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->result.rows.size(), 2997u) << sql;
      EXPECT_EQ(outcome->stats.bytes_scanned, expected)
          << sql << " par=" << par;
    }
  }
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
  DistinctOp distinct(std::make_unique<SeqScanOp>(
      &wide, "w", std::make_shared<const Schema>(*ScanSchema(wide, "w")),
      std::vector<size_t>{0}, nullptr, EvalContext{}, &stats));
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

TEST_F(EquivTest, UnknownAliasFailsUnderEveryPlan) {
  // A predicate on an alias outside FROM cannot be pushed to a scan or
  // become a join edge; every plan reports it instead of dropping it.
  for (const char* sql :
       {"SELECT p.acc FROM proteins p WHERE x.acc = 'a'",
        "SELECT p.acc FROM proteins p, activities a "
        "WHERE p.acc = a.acc AND a.lig = x.lig"}) {
    for (bool optimized : {false, true}) {
      auto outcome = planner_->Run(sql, optimized ? PlannerOptions::Optimized()
                                                  : PlannerOptions::Naive());
      ASSERT_FALSE(outcome.ok()) << sql << (optimized ? " [opt]" : " [naive]");
      EXPECT_TRUE(outcome.status().IsNotFound()) << outcome.status();
    }
  }
}

// An index range scan answers every range comparison on its column, and
// those comparisons leave its residual, so the bounds it folds must admit
// what the naive filter admits: of equal bounds the exclusive one, in
// either order and operand order, and nothing at all past a NULL bound.
// A plan-cache planner runs the same statements: the second re-binds the
// first's prepared plan to equal bounds. Leaves b and c have pre 3 and 5.
TEST_F(EquivTest, IndexScanBoundsAdmitWhatTheFilterAdmits) {
  const char* statements[] = {
      "SELECT p.acc FROM proteins p WHERE p.pre >= 3 AND p.pre > 2",
      "SELECT p.acc FROM proteins p WHERE p.pre >= 3 AND p.pre > 3",
      "SELECT p.acc FROM proteins p WHERE p.pre > 3 AND p.pre >= 3",
      "SELECT p.acc FROM proteins p WHERE p.pre <= 5 AND p.pre < 5",
      "SELECT p.acc FROM proteins p WHERE 5 > p.pre AND 5 >= p.pre",
      "SELECT p.acc FROM proteins p WHERE p.pre > NULL",
      "SELECT p.acc FROM proteins p WHERE p.pre >= 2 AND p.pre < NULL",
      "SELECT p.acc FROM proteins p WHERE p.acc = NULL",
  };
  PlanCache cache;
  Planner cached(&catalog_, nullptr, &cache);
  for (const char* sql : statements) {
    auto naive = planner_->Run(sql, PlannerOptions::Naive());
    ASSERT_TRUE(naive.ok()) << sql << " " << naive.status();
    auto explain = planner_->Run(std::string("EXPLAIN ") + sql,
                                 PlannerOptions::Optimized());
    ASSERT_TRUE(explain.ok()) << sql << " " << explain.status();
    EXPECT_NE(explain->physical_plan.find("IndexScan proteins."),
              std::string::npos)
        << sql << "\n" << explain->physical_plan;
    for (Planner* planner : {planner_.get(), &cached}) {
      auto opt = planner->Run(sql, PlannerOptions::Optimized());
      ASSERT_TRUE(opt.ok()) << sql << " " << opt.status();
      ExpectIdentical(Canonical(naive->result, sql),
                      Canonical(opt->result, sql), sql);
    }
  }
  auto rebound = cached.Run(statements[1], PlannerOptions::Optimized());
  ASSERT_TRUE(rebound.ok()) << rebound.status();
  EXPECT_TRUE(rebound->from_plan_cache);
}

// A select item matches a GROUP BY key only as the same expression tree:
// two doubles that print alike in six digits are different keys, under
// every plan. The same item with the key's own literal still reads the
// key's values.
TEST_F(EquivTest, GroupKeysMatchSelectItemsByTree) {
  util::SimulatedClock clock;
  auto built = BuildSmallInstance(&clock);
  ASSERT_TRUE(built.ok()) << built.status();
  Planner planner((*built)->catalog());
  const std::string group =
      " AS x, COUNT(*) AS c FROM activities a "
      "GROUP BY a.affinity_nm + 1234567.4";
  for (bool optimized : {false, true}) {
    const PlannerOptions opts =
        optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
    const std::string tag = optimized ? "[opt]" : "[naive]";
    auto near = planner.Run("SELECT a.affinity_nm + 1234567.5" + group, opts);
    ASSERT_FALSE(near.ok()) << tag;
    EXPECT_TRUE(near.status().IsInvalidArgument()) << near.status();
    EXPECT_NE(near.status().ToString().find(
                  "non-aggregate select item not in GROUP BY"),
              std::string::npos)
        << near.status();
    auto same = planner.Run("SELECT a.affinity_nm + 1234567.4" + group, opts);
    ASSERT_TRUE(same.ok()) << tag << " " << same.status();
    EXPECT_FALSE(same->result.rows.empty()) << tag;
  }
}

TEST_F(EquivTest, BareColumnNamesResolveAsOverWholeRows) {
  // Pruning keeps every scan column a bare name could resolve to, so a bare
  // name that is ambiguous across the joined tables still fails, and an
  // unambiguous one still reads the same column.
  const char* ambiguous =
      "SELECT v FROM nums n1 JOIN nums n2 ON n1.k = n2.k";
  const char* unique =
      "SELECT lig, family FROM proteins p JOIN activities a "
      "ON p.acc = a.acc WHERE aff < 100.0";
  QueryResult reference;
  for (bool optimized : {false, true}) {
    PlannerOptions opts =
        optimized ? PlannerOptions::Optimized() : PlannerOptions::Naive();
    auto failed = planner_->Run(ambiguous, opts);
    ASSERT_FALSE(failed.ok()) << (optimized ? "[opt]" : "[naive]");
    EXPECT_TRUE(failed.status().IsInvalidArgument()) << failed.status();
    auto got = planner_->Run(unique, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    if (!optimized) {
      reference = Canonical(std::move(got->result), unique);
      EXPECT_FALSE(reference.rows.empty());
    } else {
      ExpectIdentical(reference, Canonical(std::move(got->result), unique),
                      unique);
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
  SeqScanOp scan(&big, "b",
                 std::make_shared<const Schema>(*ScanSchema(big, "b")), {0},
                 nullptr, {}, &stats);
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
