// Core facade tests: overlay correctness, end-to-end DrugTree behaviour, the
// naive-vs-optimized equivalence property over generated workloads, and
// incremental updates.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/drugtree.h"
#include "core/workload.h"
#include "util/clock.h"

namespace drugtree {
namespace core {
namespace {

using query::PlannerOptions;
using storage::Value;

class DrugTreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new util::SimulatedClock();
    BuildOptions options;
    options.seed = 99;
    options.num_families = 3;
    options.taxa_per_family = 10;
    options.sequence_length = 90;
    options.num_ligands = 120;
    auto built = DrugTree::Build(options, clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = built->release();
  }
  static void TearDownTestSuite() {
    delete dt_;
    dt_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static util::SimulatedClock* clock_;
  static DrugTree* dt_;
};

util::SimulatedClock* DrugTreeTest::clock_ = nullptr;
DrugTree* DrugTreeTest::dt_ = nullptr;

TEST_F(DrugTreeTest, BuildWiresEverything) {
  EXPECT_EQ(dt_->tree().NumLeaves(), 30u);
  EXPECT_EQ(dt_->overlay()->proteins()->NumRows(), 30);
  EXPECT_EQ(dt_->ligands()->NumRows(), 120);
  EXPECT_GT(dt_->activities()->NumRows(), 0);
  EXPECT_EQ(dt_->overlay()->tree_nodes()->NumRows(),
            static_cast<int64_t>(dt_->tree().NumNodes()));
  EXPECT_EQ(dt_->overlay()->node_overlay()->NumRows(),
            static_cast<int64_t>(dt_->tree().NumNodes()));
}

TEST_F(DrugTreeTest, EveryProteinMapsToALeaf) {
  auto* proteins = dt_->overlay()->proteins();
  auto node_col = *proteins->schema().IndexOf("node_id");
  auto acc_col = *proteins->schema().IndexOf("accession");
  for (auto rid : proteins->LiveRows()) {
    const auto& row = proteins->row(rid);
    ASSERT_FALSE(row[node_col].is_null());
    auto node = static_cast<phylo::NodeId>(row[node_col].AsInt64());
    EXPECT_TRUE(dt_->tree().node(node).IsLeaf());
    EXPECT_EQ(dt_->tree().node(node).name, row[acc_col].AsString());
  }
}

TEST_F(DrugTreeTest, OverlayAggregatesMatchBruteForce) {
  // Recompute per-node activity counts by brute force over the activities
  // table and the tree, then compare with the overlay.
  auto* acts = dt_->activities();
  auto acc_col = *acts->schema().IndexOf("accession");
  std::map<std::string, int64_t> per_leaf;
  for (auto rid : acts->LiveRows()) {
    ++per_leaf[acts->row(rid)[acc_col].AsString()];
  }
  const auto& index = dt_->tree_index();
  const auto& aggs = dt_->overlay()->aggregates();
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    auto id = static_cast<phylo::NodeId>(i);
    int64_t expected = 0;
    for (phylo::NodeId n : index.SubtreeNodes(id)) {
      if (!dt_->tree().node(n).IsLeaf()) continue;
      auto it = per_leaf.find(dt_->tree().node(n).name);
      if (it != per_leaf.end()) expected += it->second;
    }
    EXPECT_EQ(aggs[i].activity_count, expected) << "node " << id;
  }
}

TEST_F(DrugTreeTest, OverlayBestAffinityIsSubtreeMinimum) {
  auto* acts = dt_->activities();
  auto acc_col = *acts->schema().IndexOf("accession");
  auto aff_col = *acts->schema().IndexOf("affinity_nm");
  std::map<std::string, double> best_per_leaf;
  for (auto rid : acts->LiveRows()) {
    const auto& row = acts->row(rid);
    auto [it, inserted] =
        best_per_leaf.emplace(row[acc_col].AsString(), row[aff_col].AsDouble());
    if (!inserted) it->second = std::min(it->second, row[aff_col].AsDouble());
  }
  const auto& aggs = dt_->overlay()->aggregates();
  phylo::NodeId root = dt_->tree().root();
  double global_best = 1e18;
  for (const auto& [acc, best] : best_per_leaf) {
    global_best = std::min(global_best, best);
  }
  EXPECT_NEAR(aggs[static_cast<size_t>(root)].best_affinity_nm, global_best,
              1e-9);
}

TEST_F(DrugTreeTest, SubtreeQueryReturnsExactlyCladeProteins) {
  // Pick an internal node and compare the query result against TreeIndex.
  phylo::NodeId clade = dt_->tree().node(dt_->tree().root()).children[0];
  auto outcome = dt_->Query(
      "SELECT p.accession FROM proteins p WHERE SUBTREE(p.node_id, " +
      std::to_string(clade) + ") ORDER BY p.accession");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  std::vector<std::string> expected;
  for (phylo::NodeId n : dt_->tree_index().SubtreeNodes(clade)) {
    if (dt_->tree().node(n).IsLeaf()) expected.push_back(dt_->tree().node(n).name);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(outcome->result.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(outcome->result.rows[i][0].AsString(), expected[i]);
  }
}

TEST_F(DrugTreeTest, WorkloadQueriesAgreeAcrossPlans) {
  WorkloadParams wp;
  wp.num_queries = 20;
  util::Rng rng(5);
  auto workload =
      GenerateWorkload(dt_->tree(), dt_->tree_index(), wp, &rng);
  ASSERT_EQ(workload.size(), 20u);
  for (const auto& q : workload) {
    auto naive = dt_->Query(q.sql, PlannerOptions::Naive());
    auto fast = dt_->Query(q.sql, PlannerOptions::Optimized());
    ASSERT_TRUE(naive.ok()) << q.sql << ": " << naive.status();
    ASSERT_TRUE(fast.ok()) << q.sql << ": " << fast.status();
    ASSERT_EQ(naive->result.rows.size(), fast->result.rows.size()) << q.sql;
    for (size_t i = 0; i < naive->result.rows.size(); ++i) {
      EXPECT_EQ(naive->result.rows[i], fast->result.rows[i])
          << q.sql << " row " << i;
    }
  }
}

TEST_F(DrugTreeTest, OptimizedSubtreePlanTouchesFewerRows) {
  phylo::NodeId clade = dt_->tree().node(dt_->tree().root()).children[0];
  std::string sql =
      "SELECT o.node_id FROM node_overlay o WHERE SUBTREE(o.node_id, " +
      std::to_string(clade) + ")";
  auto naive = dt_->Query(sql, PlannerOptions::Naive());
  auto fast = dt_->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  // Naive scans every overlay row; optimized fetches only the interval.
  EXPECT_EQ(naive->stats.rows_scanned,
            static_cast<int64_t>(dt_->tree().NumNodes()));
  EXPECT_EQ(fast->stats.rows_scanned, 0);
  EXPECT_EQ(fast->stats.rows_index_fetched,
            static_cast<int64_t>(fast->result.rows.size()));
}

TEST_F(DrugTreeTest, MakeTraceAndSessionEndToEnd) {
  mobile::TraceParams tp;
  tp.num_actions = 12;
  auto trace = dt_->MakeTrace(tp, 17);
  ASSERT_EQ(trace.size(), 12u);
  mobile::SessionOptions sopts;
  auto session = dt_->MakeSession(mobile::DeviceProfile::TabletWifi(), sopts,
                                  PlannerOptions::Optimized());
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->latency_ms.count(), 12);
  EXPECT_GT(report->bytes_shipped, 0u);
}

TEST_F(DrugTreeTest, QueryErrorsPropagate) {
  EXPECT_TRUE(dt_->Query("SELECT nope FROM proteins p").status().IsNotFound());
  EXPECT_TRUE(dt_->Query("garbage").status().IsParseError());
}

// Separate fixture (non-shared instance) for mutation tests.
class DrugTreeMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildOptions options;
    options.seed = 7;
    options.num_families = 2;
    options.taxa_per_family = 6;
    options.sequence_length = 70;
    options.num_ligands = 40;
    auto built = DrugTree::Build(options, &clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = std::move(*built);
  }

  util::SimulatedClock clock_;
  std::unique_ptr<DrugTree> dt_;
};

TEST_F(DrugTreeMutationTest, AddActivityUpdatesPathAggregates) {
  auto leaf = dt_->tree().Leaves()[2];
  const std::string acc = dt_->tree().node(leaf).name;
  const auto& index = dt_->tree_index();
  std::vector<int64_t> before;
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    before.push_back(dt_->overlay()->aggregates()[i].activity_count);
  }
  ASSERT_TRUE(dt_->AddActivity(acc, "L000001", 2.5).ok());
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    auto id = static_cast<phylo::NodeId>(i);
    int64_t expected = before[i] + (index.IsAncestor(id, leaf) ? 1 : 0);
    EXPECT_EQ(dt_->overlay()->aggregates()[i].activity_count, expected)
        << "node " << id;
  }
  // Strong new binder becomes the subtree best along the path.
  EXPECT_DOUBLE_EQ(dt_->overlay()
                       ->aggregates()[static_cast<size_t>(leaf)]
                       .best_affinity_nm,
                   2.5);
}

TEST_F(DrugTreeMutationTest, AddActivityInvalidatesResultCache) {
  PlannerOptions opts = PlannerOptions::Optimized();
  opts.use_result_cache = true;
  const char* sql = "SELECT COUNT(*) AS n FROM activities a";
  auto first = dt_->Query(sql, opts);
  ASSERT_TRUE(first.ok());
  auto cached = dt_->Query(sql, opts);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_result_cache);
  auto leaf_name = dt_->tree().node(dt_->tree().Leaves()[0]).name;
  ASSERT_TRUE(dt_->AddActivity(leaf_name, "L000002", 10.0).ok());
  auto after = dt_->Query(sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_result_cache);
  EXPECT_EQ(after->result.rows[0][0].AsInt64(),
            first->result.rows[0][0].AsInt64() + 1);
}

TEST_F(DrugTreeMutationTest, AddActivityUnknownAccessionFails) {
  auto activities = dt_->catalog()->Lookup("activities");
  ASSERT_TRUE(activities.ok());
  const storage::Table* table = *activities;
  PlannerOptions cached = PlannerOptions::Optimized();
  cached.use_result_cache = true;
  const char* sql = "SELECT COUNT(*) AS n FROM activities a";
  ASSERT_TRUE(dt_->Query(sql, cached).ok());  // now in the result cache
  const int64_t rows = table->NumRows();
  const uint64_t plan_version = table->plan_version();
  const storage::EncodedTableSnapshot* snapshot = table->encoded();
  ASSERT_NE(snapshot, nullptr);
  const uint64_t epoch = dt_->catalog()->epoch();

  const std::string leaf = dt_->tree().node(dt_->tree().Leaves()[0]).name;
  EXPECT_TRUE(dt_->AddActivity("NOPE", "L000001", 5.0).IsNotFound());
  EXPECT_TRUE(dt_->AddActivity(leaf, "L000001", -1.0).IsInvalidArgument());
  EXPECT_TRUE(
      dt_->AddActivity(leaf, "L000001", std::nan("")).IsInvalidArgument());

  // A rejected write changes nothing: no row, no version bump, a fresh
  // snapshot, the same epoch, and a cached count that is still true.
  EXPECT_EQ(table->NumRows(), rows);
  EXPECT_EQ(table->plan_version(), plan_version);
  EXPECT_EQ(table->encoded(), snapshot);
  EXPECT_EQ(dt_->catalog()->epoch(), epoch);
  auto from_cache = dt_->Query(sql, cached);
  auto uncached = dt_->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(from_cache.ok());
  ASSERT_TRUE(uncached.ok());
  EXPECT_TRUE(from_cache->from_result_cache);
  EXPECT_EQ(from_cache->result.rows[0][0].AsInt64(),
            uncached->result.rows[0][0].AsInt64());
  EXPECT_EQ(uncached->result.rows[0][0].AsInt64(), rows);
}

TEST_F(DrugTreeMutationTest, NodeOverlayTableSurvivesUpdatesAndRebuilds) {
  // The catalog holds node_overlay by pointer: an update plus a rebuild
  // must leave that very table registered, and overlay queries working.
  auto leaf = dt_->tree().Leaves()[0];
  const std::string acc = dt_->tree().node(leaf).name;
  ASSERT_TRUE(dt_->AddActivity(acc, "L000003", 1.5).ok());
  ASSERT_TRUE(dt_->BuildEncodedSegments().ok());
  auto registered = dt_->catalog()->Lookup("node_overlay");
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ(*registered, dt_->overlay()->node_overlay());
  EXPECT_DOUBLE_EQ(
      dt_->overlay()->aggregates()[static_cast<size_t>(leaf)].best_affinity_nm,
      1.5);
  auto overlay = dt_->Query(dt_->OverlayQuerySql(dt_->tree().root()));
  ASSERT_TRUE(overlay.ok()) << overlay.status();
  EXPECT_FALSE(overlay->result.rows.empty());
}

TEST_F(DrugTreeMutationTest, RebuildAfterWritesReencodesOnlyActivities) {
  std::map<std::string, uint64_t> plan_versions;
  std::map<std::string, const storage::EncodedTableSnapshot*> snapshots;
  for (const auto& [name, table] : dt_->catalog()->tables()) {
    ASSERT_NE(table->encoded(), nullptr) << name;
    plan_versions[name] = table->plan_version();
    snapshots[name] = table->encoded();
  }
  ASSERT_EQ(snapshots.size(), 5u);
  const size_t activities_before = snapshots["activities"]->num_rows;

  auto leaves = dt_->tree().Leaves();
  ASSERT_TRUE(
      dt_->AddActivity(dt_->tree().node(leaves[0]).name, "L000001", 3.0).ok());
  ASSERT_TRUE(
      dt_->AddActivity(dt_->tree().node(leaves[1]).name, "L000002", 4.0).ok());
  ASSERT_TRUE(dt_->BuildEncodedSegments().ok());

  for (const auto& [name, table] : dt_->catalog()->tables()) {
    SCOPED_TRACE(name);
    ASSERT_NE(table->encoded(), nullptr);  // every snapshot is fresh
    if (name == "activities") {
      EXPECT_NE(table->plan_version(), plan_versions[name]);
      EXPECT_EQ(table->encoded()->num_rows, activities_before + 2);
      EXPECT_TRUE(table->stats_fresh());
    } else {
      EXPECT_EQ(table->plan_version(), plan_versions[name]);
      EXPECT_EQ(table->encoded(), snapshots[name]);
    }
  }
}

TEST(WorkloadTest, GenerationDeterministicAndWellFormed) {
  util::SimulatedClock clock;
  BuildOptions options;
  options.seed = 3;
  options.num_families = 2;
  options.taxa_per_family = 5;
  options.num_ligands = 30;
  auto dt = DrugTree::Build(options, &clock);
  ASSERT_TRUE(dt.ok());
  WorkloadParams wp;
  wp.num_queries = 25;
  util::Rng r1(9), r2(9);
  auto w1 = GenerateWorkload((*dt)->tree(), (*dt)->tree_index(), wp, &r1);
  auto w2 = GenerateWorkload((*dt)->tree(), (*dt)->tree_index(), wp, &r2);
  ASSERT_EQ(w1.size(), 25u);
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].sql, w2[i].sql);
    EXPECT_FALSE(w1[i].sql.empty());
  }
  // Every generated query must at least plan and execute.
  for (const auto& q : w1) {
    auto outcome = (*dt)->Query(q.sql);
    EXPECT_TRUE(outcome.ok()) << q.sql << ": " << outcome.status();
  }
}

}  // namespace
}  // namespace core
}  // namespace drugtree
