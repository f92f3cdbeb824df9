// Logical planning and optimizer-rule tests.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>

#include "phylo/newick.h"
#include "query/logical_plan.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/rules.h"

namespace drugtree {
namespace query {
namespace {

using storage::IndexKind;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"family", ValueType::kString, false},
                                   {"node_id", ValueType::kInt64, true},
                                   {"pre", ValueType::kInt64, true}});
    ASSERT_TRUE(pschema.ok());
    proteins_ = std::make_unique<Table>("proteins", *pschema);
    auto aschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"lig", ValueType::kString, false},
                                   {"aff", ValueType::kDouble, false}});
    ASSERT_TRUE(aschema.ok());
    activities_ = std::make_unique<Table>("activities", *aschema);
    auto lschema = Schema::Create({{"lig", ValueType::kString, false},
                                   {"mw", ValueType::kDouble, false}});
    ASSERT_TRUE(lschema.ok());
    ligands_ = std::make_unique<Table>("ligands", *lschema);

    // Tree ((a,b)x,c)r with the standard numbering.
    auto t = phylo::ParseNewick("((a,b)x,c)r;");
    ASSERT_TRUE(t.ok());
    tree_ = std::move(*t);
    auto idx = phylo::TreeIndex::Build(tree_);
    ASSERT_TRUE(idx.ok());
    index_ = std::make_unique<phylo::TreeIndex>(std::move(*idx));

    for (auto leaf : tree_.Leaves()) {
      ASSERT_TRUE(proteins_
                      ->Insert({Value::String(tree_.node(leaf).name),
                                Value::String("fam"), Value::Int64(leaf),
                                Value::Int64(index_->Pre(leaf))})
                      .ok());
    }
    ASSERT_TRUE(activities_
                    ->Insert({Value::String("a"), Value::String("L1"),
                              Value::Double(10)})
                    .ok());
    ASSERT_TRUE(ligands_->Insert({Value::String("L1"), Value::Double(300)}).ok());
    ASSERT_TRUE(proteins_->Analyze().ok());
    ASSERT_TRUE(activities_->Analyze().ok());
    ASSERT_TRUE(ligands_->Analyze().ok());

    ASSERT_TRUE(catalog_.Register(proteins_.get()).ok());
    ASSERT_TRUE(catalog_.Register(activities_.get()).ok());
    ASSERT_TRUE(catalog_.Register(ligands_.get()).ok());
    catalog_.SetTree(&tree_, index_.get());
    ASSERT_TRUE(catalog_.BindTree("proteins", {"node_id", "pre", ""}).ok());
  }

  LogicalPtr Build(const std::string& sql) {
    auto stmt = ParseQuery(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    auto plan = BuildLogicalPlan(*stmt, catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return *plan;
  }

  LogicalPtr Optimize(const std::string& sql,
                      OptimizerOptions opts = OptimizerOptions::AllOn()) {
    auto plan = Build(sql);
    auto optimized = OptimizeLogicalPlan(plan, catalog_, opts);
    EXPECT_TRUE(optimized.ok()) << optimized.status();
    return *optimized;
  }

  std::unique_ptr<Table> proteins_, activities_, ligands_;
  phylo::Tree tree_;
  std::unique_ptr<phylo::TreeIndex> index_;
  Catalog catalog_;
};

TEST_F(PlanTest, BuildShapeSimpleSelect) {
  auto plan = Build("SELECT p.acc FROM proteins p WHERE p.family = 'fam'");
  // Project(Filter(Scan)).
  EXPECT_EQ(plan->kind, LogicalKind::kProject);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kFilter);
  EXPECT_EQ(plan->children[0]->children[0]->kind, LogicalKind::kScan);
}

TEST_F(PlanTest, BuildShapeJoinAggregateSortLimit) {
  auto plan = Build(
      "SELECT p.family, COUNT(*) AS n FROM proteins p "
      "JOIN activities a ON p.acc = a.acc GROUP BY p.family "
      "ORDER BY n DESC LIMIT 5");
  EXPECT_EQ(plan->kind, LogicalKind::kLimit);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kSort);
  EXPECT_EQ(plan->children[0]->children[0]->kind, LogicalKind::kProject);
  EXPECT_EQ(plan->children[0]->children[0]->children[0]->kind,
            LogicalKind::kAggregate);
}

TEST_F(PlanTest, StarExpandsToAllColumns) {
  auto plan = Build("SELECT * FROM proteins p");
  EXPECT_EQ(plan->schema.NumColumns(), 4u);
  EXPECT_EQ(plan->schema.column(0).name, "p.acc");
}

TEST_F(PlanTest, UnknownTableRejected) {
  auto stmt = ParseQuery("SELECT x FROM nope");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(BuildLogicalPlan(*stmt, catalog_).status().IsNotFound());
}

TEST_F(PlanTest, DuplicateAliasRejected) {
  auto stmt = ParseQuery("SELECT a.acc FROM proteins a, activities a");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(BuildLogicalPlan(*stmt, catalog_).status().IsInvalidArgument());
}

TEST_F(PlanTest, NonGroupedSelectItemRejected) {
  auto stmt =
      ParseQuery("SELECT p.acc, COUNT(*) FROM proteins p GROUP BY p.family");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(BuildLogicalPlan(*stmt, catalog_).status().IsInvalidArgument());
}

TEST_F(PlanTest, PushdownMovesPredicateIntoScan) {
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p JOIN activities a ON p.acc = a.acc "
      "WHERE p.family = 'fam' AND a.aff < 100");
  // Find the scans; both must carry their single-table conjunct.
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Scan proteins AS p [pred:"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("Scan activities AS a [pred:"), std::string::npos)
      << rendered;
}

TEST_F(PlanTest, PushdownDisabledKeepsFilterAbove) {
  OptimizerOptions opts = OptimizerOptions::AllOff();
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p WHERE p.family = 'fam'", opts);
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("[pred:"), std::string::npos) << rendered;
}

TEST_F(PlanTest, TreeRewriteReplacesSubtreeWithInterval) {
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x')");
  std::string rendered = plan->ToString();
  EXPECT_EQ(rendered.find("SUBTREE"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("p.pre"), std::string::npos) << rendered;
  // x subtree: pre in [1, 3].
  EXPECT_NE(rendered.find(">= 1"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("<= 3"), std::string::npos) << rendered;
}

TEST_F(PlanTest, TreeRewriteDisabledKeepsFunction) {
  OptimizerOptions opts;
  opts.enable_tree_rewrite = false;
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'x')", opts);
  EXPECT_NE(plan->ToString().find("SUBTREE"), std::string::npos);
}

TEST_F(PlanTest, TreeRewriteUnknownNodeFails) {
  auto plan = Build("SELECT p.acc FROM proteins p WHERE SUBTREE(p.node_id, 'zz')");
  auto optimized =
      OptimizeLogicalPlan(plan, catalog_, OptimizerOptions::AllOn());
  EXPECT_TRUE(optimized.status().IsNotFound());
}

TEST_F(PlanTest, TreeRewriteLeavesUnboundTablesAlone) {
  // activities has no tree binding: SUBTREE on it survives (runtime eval).
  auto plan = Optimize(
      "SELECT a.acc FROM activities a WHERE SUBTREE(a.acc, 'x')");
  EXPECT_NE(plan->ToString().find("SUBTREE"), std::string::npos);
}

TEST_F(PlanTest, ConstantFoldingSimplifies) {
  auto plan = Optimize("SELECT p.acc FROM proteins p WHERE p.pre < 2 + 3");
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("< 5"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("2 + 3"), std::string::npos) << rendered;
}

TEST_F(PlanTest, TrueConjunctsDropped) {
  auto plan = Optimize("SELECT p.acc FROM proteins p WHERE 1 = 1");
  std::string rendered = plan->ToString();
  EXPECT_EQ(rendered.find("Filter"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("[pred"), std::string::npos) << rendered;
}

TEST_F(PlanTest, JoinConditionsAttachedToJoins) {
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p, activities a, ligands l "
      "WHERE p.acc = a.acc AND a.lig = l.lig");
  std::string rendered = plan->ToString();
  // No residual filter: both equi conditions live on joins.
  EXPECT_EQ(rendered.find("Filter"), std::string::npos) << rendered;
  // Two joins with ON conditions.
  size_t first = rendered.find("Join ON");
  ASSERT_NE(first, std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Join ON", first + 1), std::string::npos) << rendered;
}

TEST_F(PlanTest, JoinReorderPutsSmallTablesFirst) {
  // proteins has 3 rows, activities 1, ligands 1; with reordering the bigger
  // table should not be forced first when it is not in the textual order...
  // Here we simply check the optimizer runs and keeps all three scans.
  auto plan = Optimize(
      "SELECT p.acc FROM proteins p, activities a, ligands l "
      "WHERE p.acc = a.acc AND a.lig = l.lig");
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Scan proteins"), std::string::npos);
  EXPECT_NE(rendered.find("Scan activities"), std::string::npos);
  EXPECT_NE(rendered.find("Scan ligands"), std::string::npos);
}

TEST_F(PlanTest, SchemaPropagatesThroughJoin) {
  auto plan = Optimize(
      "SELECT p.acc, a.aff FROM proteins p JOIN activities a ON "
      "p.acc = a.acc");
  EXPECT_EQ(plan->schema.NumColumns(), 2u);
  EXPECT_EQ(plan->schema.column(0).name, "p.acc");
  EXPECT_EQ(plan->schema.column(1).name, "a.aff");
}

/// Visits every node of a plan, parents first.
void ForEachNode(const LogicalPtr& node,
                 const std::function<void(const LogicalNode&)>& visit) {
  visit(*node);
  for (const auto& c : node->children) ForEachNode(c, visit);
}

TEST_F(PlanTest, PruningListsOnlyTheColumnsReadAbove) {
  auto plan = Optimize(
      "SELECT p.acc, l.mw FROM proteins p, activities a, ligands l "
      "WHERE p.acc = a.acc AND a.lig = l.lig AND p.family = 'fam' "
      "AND a.aff < p.pre * 2.0");
  std::map<std::string, std::vector<std::string>> emitted;
  ForEachNode(plan, [&emitted](const LogicalNode& n) {
    if (n.kind != LogicalKind::kScan) return;
    ASSERT_EQ(n.schema.NumColumns(), n.columns.size());
    for (size_t i = 0; i < n.columns.size(); ++i) {
      // Each listed column is named by the schema, in table order.
      EXPECT_EQ(n.schema.column(i).name,
                n.full_schema->column(n.columns[i]).name);
      if (i) EXPECT_LT(n.columns[i - 1], n.columns[i]);
      emitted[n.alias].push_back(n.schema.column(i).name);
    }
  });
  // p.family is read only by its pushed-down predicate; p.pre and a.aff by
  // the residual filter; the join keys stay.
  EXPECT_EQ(emitted["p"], (std::vector<std::string>{"p.acc", "p.pre"}));
  EXPECT_EQ(emitted["a"],
            (std::vector<std::string>{"a.acc", "a.lig", "a.aff"}));
  EXPECT_EQ(emitted["l"], (std::vector<std::string>{"l.lig", "l.mw"}));
}

TEST_F(PlanTest, PruningOffKeepsFullSchemas) {
  OptimizerOptions opts;
  opts.enable_projection_pruning = false;
  for (const char* sql :
       {"SELECT p.acc FROM proteins p, activities a, ligands l "
        "WHERE p.acc = a.acc AND a.lig = l.lig AND l.mw > 100.0",
        "SELECT COUNT(*) AS n FROM proteins p WHERE p.pre > 1",
        "SELECT p.family, MAX(a.aff) AS m FROM proteins p "
        "JOIN activities a ON p.acc = a.acc GROUP BY p.family"}) {
    auto plan = Optimize(sql, opts);
    ForEachNode(plan, [sql](const LogicalNode& n) {
      if (n.kind == LogicalKind::kScan) {
        EXPECT_EQ(n.columns.size(), n.full_schema->NumColumns()) << sql;
        EXPECT_EQ(n.schema.columns().size(), n.full_schema->NumColumns())
            << sql;
      } else if (n.kind == LogicalKind::kJoin) {
        EXPECT_EQ(n.schema.NumColumns(),
                  n.children[0]->schema.NumColumns() +
                      n.children[1]->schema.NumColumns())
            << sql;
      }
    });
    // The pruned plan of the same statement is narrower.
    bool narrower = false;
    ForEachNode(Optimize(sql), [&narrower](const LogicalNode& n) {
      if (n.kind == LogicalKind::kScan) {
        narrower |= n.columns.size() < n.full_schema->NumColumns();
      }
    });
    EXPECT_TRUE(narrower) << sql;
    EXPECT_EQ(plan->ToString().find("[columns:"), std::string::npos) << sql;
  }
}

TEST_F(PlanTest, PruningKeepsOperatorLabelsAndEncodedMarkers) {
  // The perfbench ledger keys operators by the first word of their EXPLAIN
  // line, and encoded scans by " [encoded: ".
  // Pruning only appends a column list: the same plan with and without it
  // has the same operators, line for line, and the same markers.
  ASSERT_TRUE(proteins_->CreateIndex("acc", IndexKind::kHash).ok());
  ASSERT_TRUE(proteins_->CreateIndex("pre", IndexKind::kBTree).ok());
  ASSERT_TRUE(proteins_->BuildEncodedSegments(2).ok());
  ASSERT_TRUE(activities_->BuildEncodedSegments(2).ok());
  ASSERT_TRUE(ligands_->BuildEncodedSegments(2).ok());
  Planner planner(&catalog_);
  PlannerOptions unpruned;
  unpruned.optimizer.enable_projection_pruning = false;
  size_t encoded_lines = 0;
  size_t pruned_lines = 0;
  for (const char* sql :
       {"SELECT a.lig FROM activities a WHERE a.aff < 50.0",
        "SELECT p.family, COUNT(*) AS n FROM proteins p "
        "JOIN activities a ON p.acc = a.acc GROUP BY p.family",
        "SELECT a.lig, p.family FROM activities a JOIN proteins p "
        "ON a.acc = p.acc WHERE p.family = 'fam'",
        "SELECT p.acc, l.mw FROM proteins p, activities a, ligands l "
        "WHERE p.acc = a.acc AND a.lig = l.lig AND p.pre >= 1 "
        "ORDER BY l.mw LIMIT 3",
        "SELECT * FROM proteins p JOIN activities a ON p.acc = a.acc"}) {
    auto pruned = planner.Run(std::string("EXPLAIN ") + sql,
                              PlannerOptions());
    auto full = planner.Run(std::string("EXPLAIN ") + sql, unpruned);
    ASSERT_TRUE(pruned.ok()) << sql << ": " << pruned.status();
    ASSERT_TRUE(full.ok()) << sql << ": " << full.status();
    std::istringstream pruned_lines_in(pruned->physical_plan);
    std::istringstream full_lines_in(full->physical_plan);
    std::string a, b;
    while (std::getline(full_lines_in, b)) {
      ASSERT_TRUE(std::getline(pruned_lines_in, a)) << sql;
      const size_t start = b.find_first_not_of(' ');
      EXPECT_EQ(a.substr(0, a.find(' ', start)),
                b.substr(0, b.find(' ', start)))
          << sql;
      const bool encoded = b.find(" [encoded: ") != std::string::npos;
      EXPECT_EQ(a.find(" [encoded: ") != std::string::npos, encoded) << a;
      encoded_lines += encoded;
      pruned_lines += a.find(" [columns:") != std::string::npos;
    }
    EXPECT_FALSE(std::getline(pruned_lines_in, a)) << sql;
  }
  EXPECT_GT(encoded_lines, 0u);
  EXPECT_GT(pruned_lines, 0u);
}

TEST_F(PlanTest, ExplainRendersTree) {
  auto plan = Optimize("SELECT p.acc FROM proteins p WHERE p.pre <= 3");
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Project"), std::string::npos);
  EXPECT_NE(rendered.find("Scan proteins"), std::string::npos);
}

}  // namespace
}  // namespace query
}  // namespace drugtree
