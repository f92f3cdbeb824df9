// Index nested-loop join tests: the cost-chosen join probes the inner base
// table's hash index once per outer row and must agree with the naive plan
// bit for bit — across clade sizes, inner selectivities, NULL keys,
// tombstones, late-added activities, parallelism and sharded topologies —
// while touching rows in proportion to its result, not its
// tables. Also pins mid-probe cancellation and the exact SUBTREE
// cardinality the join choice is priced from.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "query/cost_model.h"
#include "query/physical.h"
#include "query/planner.h"
#include "query/rules.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {
namespace {

using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

std::unique_ptr<core::DrugTree> BuildInstance(util::Clock* clock) {
  core::BuildOptions options;
  options.seed = 17;
  options.num_families = 3;
  options.taxa_per_family = 6;
  options.sequence_length = 80;
  options.num_ligands = 40;
  auto built = core::DrugTree::Build(options, clock);
  EXPECT_TRUE(built.ok()) << built.status();
  return built.ok() ? std::move(*built) : nullptr;
}

/// Root, a mid-tree clade (about a sixth of the leaves) and a clade whose
/// children are all leaves.
struct Clades {
  phylo::NodeId root = phylo::kInvalidNode;
  phylo::NodeId mid = phylo::kInvalidNode;
  phylo::NodeId leaf_parent = phylo::kInvalidNode;
};

Clades PickClades(const core::DrugTree& dt) {
  const phylo::Tree& tree = dt.tree();
  const phylo::TreeIndex& index = dt.tree_index();
  Clades c;
  c.root = tree.root();
  const int32_t target = index.SubtreeLeafCount(c.root) / 6;
  tree.PreOrder([&](phylo::NodeId id) {
    if (tree.node(id).IsLeaf() || id == c.root) return;
    const int32_t leaves = index.SubtreeLeafCount(id);
    if (c.mid == phylo::kInvalidNode ||
        std::abs(leaves - target) <
            std::abs(index.SubtreeLeafCount(c.mid) - target)) {
      c.mid = id;
    }
    if (c.leaf_parent == phylo::kInvalidNode &&
        leaves == index.SubtreeSize(id) - 1) {
      c.leaf_parent = id;
    }
  });
  return c;
}

std::string ScreeningSql(const core::DrugTree& dt, phylo::NodeId node,
                         double threshold_nm) {
  core::WorkloadParams params;
  params.affinity_threshold_nm = threshold_nm;
  return core::MakeQuerySql(core::QueryKind::kScreeningJoin, node, dt.tree(),
                            params);
}

/// The screening join without its LIMIT, listing the activity's ligand so
/// a tombstoned or late-added activity row shows up in the result.
std::string FullScreeningSql(phylo::NodeId node, double threshold_nm) {
  return util::StringPrintf(
      "SELECT p.accession, a.ligand_id, l.name, a.affinity_nm "
      "FROM proteins p "
      "JOIN activities a ON p.accession = a.accession "
      "JOIN ligands l ON a.ligand_id = l.ligand_id "
      "WHERE SUBTREE(p.node_id, %d) AND a.affinity_nm < %.1f "
      "ORDER BY a.affinity_nm, p.accession, a.ligand_id",
      node, threshold_nm);
}

std::string FamilyAggregateSql(const core::DrugTree& dt) {
  return core::MakeQuerySql(core::QueryKind::kFamilyAggregate, dt.tree().root(),
                            dt.tree(), core::WorkloadParams());
}

/// Self-join through the parent pointer: the root's parent_id is NULL, so
/// the root clade carries one NULL outer key into the node_id hash index.
std::string ParentJoinSql(phylo::NodeId node) {
  return util::StringPrintf(
      "SELECT c.node_id, c.parent_id, p.depth FROM tree_nodes c "
      "JOIN tree_nodes p ON c.parent_id = p.node_id "
      "WHERE SUBTREE(c.node_id, %d) ORDER BY c.node_id",
      node);
}

void ExpectSameRows(const QueryResult& want, const QueryResult& got,
                    const std::string& context) {
  EXPECT_EQ(want.columns, got.columns) << context;
  ASSERT_EQ(want.rows.size(), got.rows.size()) << context;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(want.rows[i], got.rows[i]) << context << " row " << i;
  }
}

std::string ExplainPlan(core::DrugTree* dt, const std::string& sql) {
  auto explained = dt->Query("EXPLAIN " + sql, PlannerOptions::Optimized());
  EXPECT_TRUE(explained.ok()) << explained.status();
  return explained.ok() ? explained->physical_plan : "";
}

/// Every statement against the naive plan: parallelism {1, 4} on the single
/// node, then through each sharded router.
void ExpectMatchesNaive(
    core::DrugTree* dt, const std::vector<std::string>& sqls,
    const std::vector<std::unique_ptr<shard::ShardRouter>>& routers) {
  for (const std::string& sql : sqls) {
    auto naive = dt->Query(sql, PlannerOptions::Naive());
    ASSERT_TRUE(naive.ok()) << sql << ": " << naive.status();
    for (int parallelism : {1, 4}) {
      PlannerOptions options = PlannerOptions::Optimized();
      options.parallelism = parallelism;
      auto got = dt->Query(sql, options);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
      ExpectSameRows(naive->result, got->result,
                     util::StringPrintf("par=%d %s", parallelism,
                                        sql.c_str()));
    }
    for (const auto& router : routers) {
      server::QueryRequest request;
      request.session_id = 1;
      request.sql = sql;
      auto got = router->Submit(std::move(request));
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
      ExpectSameRows(naive->result, got->result,
                     util::StringPrintf("N=%d %s", router->num_shards(),
                                        sql.c_str()));
    }
  }
}

std::vector<std::unique_ptr<shard::ShardRouter>> MakeRouters(
    core::DrugTree* dt) {
  std::vector<std::unique_ptr<shard::ShardRouter>> routers;
  for (int shards : {2, 4}) {
    shard::RouterOptions options;
    options.num_shards = shards;
    auto router = dt->MakeShardRouter(options);
    EXPECT_TRUE(router.ok()) << router.status();
    if (router.ok()) routers.push_back(std::move(*router));
  }
  return routers;
}

class IndexJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new util::SimulatedClock();
    dt_ = BuildInstance(clock_).release();
    ASSERT_NE(dt_, nullptr);
    clades_ = PickClades(*dt_);
  }
  static void TearDownTestSuite() {
    delete dt_;
    dt_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static util::SimulatedClock* clock_;
  static core::DrugTree* dt_;
  static Clades clades_;
};

util::SimulatedClock* IndexJoinTest::clock_ = nullptr;
core::DrugTree* IndexJoinTest::dt_ = nullptr;
Clades IndexJoinTest::clades_;

// Naive equivalence, read-only cases on the shared instance.
TEST_F(IndexJoinTest, MatchesNaiveAcrossCladesAndSelectivities) {
  std::vector<std::string> sqls;
  for (phylo::NodeId node : {clades_.root, clades_.mid, clades_.leaf_parent}) {
    sqls.push_back(ScreeningSql(*dt_, node, 500.0));
    sqls.push_back(FullScreeningSql(node, 500.0));
    // An inner predicate that keeps almost nothing, and one that keeps
    // every activity.
    sqls.push_back(FullScreeningSql(node, 1.0));
    sqls.push_back(FullScreeningSql(node, 1e12));
  }
  sqls.push_back(FamilyAggregateSql(*dt_));
  ExpectMatchesNaive(dt_, sqls, MakeRouters(dt_));
}

TEST_F(IndexJoinTest, NullOuterKeyNeverJoins) {
  const std::string sql = ParentJoinSql(clades_.root);
  EXPECT_NE(ExplainPlan(dt_, sql).find("IndexNestedLoopJoin tree_nodes AS p"),
            std::string::npos)
      << ExplainPlan(dt_, sql);
  auto got = dt_->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(got.ok()) << got.status();
  // Every node but the root (whose parent_id is NULL) has a parent.
  EXPECT_EQ(got->result.rows.size(), dt_->tree().NumNodes() - 1);
  ExpectMatchesNaive(dt_, {sql, ParentJoinSql(clades_.mid)}, MakeRouters(dt_));
}

// Naive equivalence after writes: a tombstoned inner row and activities
// added after build.
TEST(IndexJoinMutationTest, TombstonesAndLateActivitiesMatchNaive) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildInstance(&clock);
  ASSERT_NE(dt, nullptr);
  const Clades clades = PickClades(*dt);
  auto clade = dt->Query(util::StringPrintf(
      "SELECT p.accession FROM proteins p WHERE SUBTREE(p.node_id, %d) "
      "ORDER BY p.accession",
      clades.mid));
  ASSERT_TRUE(clade.ok());
  ASSERT_FALSE(clade->result.rows.empty());
  const std::string accession = clade->result.rows[0][0].AsString();

  // Tombstone one of the clade's screening hits.
  Table* activities = dt->activities();
  const size_t acc_col = *activities->schema().IndexOf("accession");
  const size_t aff_col = *activities->schema().IndexOf("affinity_nm");
  storage::RowId victim = -1;
  for (storage::RowId id : activities->LiveRows()) {
    const Row& row = activities->row(id);
    if (row[acc_col].AsString() == accession &&
        row[aff_col].AsDouble() < 500.0) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const std::string sql = FullScreeningSql(clades.mid, 500.0);
  auto before = dt->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(activities->Delete(victim).ok());

  // Fresh activities on the clade's first protein, one of them a hit.
  auto ligand = dt->Query("SELECT ligand_id FROM ligands ORDER BY ligand_id "
                          "LIMIT 1");
  ASSERT_TRUE(ligand.ok());
  const std::string ligand_id = ligand->result.rows[0][0].AsString();
  ASSERT_TRUE(dt->AddActivity(accession, ligand_id, 0.5).ok());
  ASSERT_TRUE(dt->AddActivity(accession, ligand_id, 5e5).ok());

  auto after = dt->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(after.ok());
  // One hit gone, one added (the 5e5 nM activity misses the threshold).
  EXPECT_EQ(after->result.rows.size(), before->result.rows.size());
  EXPECT_EQ(after->result.rows.front()[3].AsDouble(), 0.5);
  EXPECT_NE(ExplainPlan(dt.get(), sql).find("IndexNestedLoopJoin"),
            std::string::npos);

  // Partitions are snapshots: routers built after the writes see them.
  ExpectMatchesNaive(dt.get(),
                     {sql, ScreeningSql(*dt, clades.mid, 500.0),
                      FullScreeningSql(clades.root, 1e12),
                      FamilyAggregateSql(*dt)},
                     MakeRouters(dt.get()));
}

// The mid-clade screening join is planned as index nested-loop joins.
TEST_F(IndexJoinTest, ExplainShowsIndexJoinForMidClade) {
  const std::string sql = ScreeningSql(*dt_, clades_.mid, 500.0);
  const std::string plan = ExplainPlan(dt_, sql);
  EXPECT_NE(plan.find("IndexNestedLoopJoin activities AS a"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("IndexNestedLoopJoin ligands AS l"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  auto explained = dt_->Query("EXPLAIN " + sql, PlannerOptions::Optimized());
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->logical_plan.find("[index nested-loop: a.accession]"),
            std::string::npos)
      << explained->logical_plan;
  // The switch that gates index access paths gates the join too.
  PlannerOptions no_index = PlannerOptions::Optimized();
  no_index.enable_index_selection = false;
  auto hashed = dt_->Query("EXPLAIN " + sql, no_index);
  ASSERT_TRUE(hashed.ok());
  EXPECT_EQ(hashed->physical_plan.find("IndexNestedLoopJoin"),
            std::string::npos)
      << hashed->physical_plan;
}

TEST_F(IndexJoinTest, HashJoinKeptWhereItPricesCheaper) {
  // affinity_nm < 1 keeps almost no activity: building a hash table over
  // that sliver beats fetching every clade protein's whole posting list.
  const std::string plan = ExplainPlan(dt_, FullScreeningSql(clades_.mid, 1.0));
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

// Rows touched follow the result, not the tables.
TEST_F(IndexJoinTest, RowsTouchedScaleWithResultNotTables) {
  const std::string sql = FullScreeningSql(clades_.mid, 500.0);
  auto outcome = dt_->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(outcome.ok());
  const int64_t result_rows =
      static_cast<int64_t>(outcome->result.rows.size());
  ASSERT_GT(result_rows, 0);
  const int64_t touched =
      outcome->stats.rows_scanned + outcome->stats.rows_index_fetched;
  EXPECT_EQ(outcome->stats.rows_scanned, 0);
  EXPECT_LE(touched, 6 * result_rows) << "result rows " << result_rows;
  const int64_t table_rows =
      dt_->activities()->NumRows() + dt_->ligands()->NumRows();
  EXPECT_LT(touched * 4, table_rows) << "touched " << touched;
}

// A deadline that passes mid-probe cancels the join, bounded by
// kCancelCheckRows fetched rows rather than the posting list's length.
TEST(IndexJoinCancelTest, DeadlineExpiringMidProbeCancels) {
  auto schema = Schema::Create({{"k", ValueType::kInt64, true},
                                {"w", ValueType::kInt64, false}});
  ASSERT_TRUE(schema.ok());
  Table outer("o", *schema);
  ASSERT_TRUE(outer.Insert({Value::Int64(7), Value::Int64(0)}).ok());
  Table inner("i", *schema);
  constexpr int kInnerRows = 5000;
  for (int i = 0; i < kInnerRows; ++i) {
    ASSERT_TRUE(inner.Insert({Value::Int64(7), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(inner.CreateIndex("k", storage::IndexKind::kHash).ok());

  ExecStats stats;
  // The inner predicate rejects every fetched row, so one Next() call walks
  // the whole 5000-row posting list unless a checkpoint stops it.
  IndexNestedLoopJoinOp join(
      std::make_unique<SeqScanOp>(&outer, "o", nullptr, EvalContext{},
                                  &stats),
      &inner, "i", "k", Expr::Column("o.k"),
      Expr::Binary(BinaryOp::kLt, Expr::Column("i.w"),
                   Expr::Literal(Value::Int64(0))),
      nullptr, EvalContext{}, &stats);
  util::SimulatedClock clock;
  QueryContext context;
  context.clock = &clock;
  context.deadline_micros = 100;
  join.SetQueryContext(&context);
  ASSERT_TRUE(join.Open().ok());
  clock.AdvanceMicros(1000);
  Row row;
  auto more = join.Next(&row);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCancelled()) << more.status();
  EXPECT_GT(stats.rows_index_fetched, 0);
  EXPECT_LT(stats.rows_index_fetched, kInnerRows);
}

// The join choice is priced from exact clade cardinalities.
TEST_F(IndexJoinTest, SubtreeIntervalEstimateIsExact) {
  for (phylo::NodeId node : {clades_.root, clades_.mid, clades_.leaf_parent}) {
    std::map<std::string, std::string> aliases = {{"p", "proteins"}};
    auto rewritten = RewriteTreePredicates(
        Expr::Function("SUBTREE", {Expr::Column("p.node_id"),
                                   Expr::Literal(Value::Int64(node))}),
        *dt_->catalog(), aliases);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    auto count = dt_->Query(util::StringPrintf(
        "SELECT COUNT(*) FROM proteins p WHERE SUBTREE(p.node_id, %d)",
        node));
    ASSERT_TRUE(count.ok());
    CostModel cost(dt_->catalog(), aliases);
    EXPECT_EQ(cost.EstimateScanRows("p", *rewritten),
              static_cast<double>(count->result.rows[0][0].AsInt64()))
        << "node " << node;
  }
}

}  // namespace
}  // namespace query
}  // namespace drugtree
