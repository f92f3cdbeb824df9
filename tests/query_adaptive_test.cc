// Adaptive-planning tests: literal normalization agrees across the result
// and plan caches, the parameterized plan cache hits / re-binds / re-plans
// soundly, version bumps (mutations, Analyze, encoded builds/drops)
// invalidate templates and nothing else does, the adaptive controller
// walks analytic knobs with hysteresis, and the full corpus stays
// bit-identical with every adaptive feature armed — across parallelism,
// concurrent serving, and sharded topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clades.h"
#include "core/drugtree.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace_store.h"
#include "query/cost_model.h"
#include "query/lexer.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "query/rules.h"
#include "server/adaptive.h"
#include "server/server.h"
#include "shard/router.h"
#include "storage/value.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {
namespace {

using storage::Value;

class AdaptiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new util::SimulatedClock();
    core::BuildOptions options;
    options.seed = 99;
    options.num_families = 3;
    options.taxa_per_family = 10;
    options.sequence_length = 90;
    options.num_ligands = 120;
    auto built = core::DrugTree::Build(options, clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = built->release();
  }
  static void TearDownTestSuite() {
    delete dt_;
    dt_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  /// Read-only corpus (shared instance; mutation tests build their own).
  static std::vector<std::string> Corpus() {
    return {
        dt_->OverlayQuerySql(dt_->tree().root()),
        "SELECT accession, family FROM proteins ORDER BY accession",
        "SELECT COUNT(*), AVG(a.affinity_nm) FROM activities a",
        "SELECT p.accession, a.affinity_nm FROM proteins p, activities a "
        "WHERE p.accession = a.accession AND a.affinity_nm < 50.0 "
        "ORDER BY a.affinity_nm LIMIT 20",
        "SELECT p.family, COUNT(*) FROM proteins p, activities a "
        "WHERE p.accession = a.accession GROUP BY p.family "
        "ORDER BY p.family",
    };
  }

  static void ExpectSameRows(const QueryResult& expect,
                             const QueryResult& got,
                             const std::string& context) {
    EXPECT_EQ(expect.columns, got.columns) << context;
    ASSERT_EQ(expect.rows.size(), got.rows.size()) << context;
    for (size_t i = 0; i < expect.rows.size(); ++i) {
      EXPECT_EQ(expect.rows[i], got.rows[i]) << context << " row " << i;
    }
  }

  static util::SimulatedClock* clock_;
  static core::DrugTree* dt_;
};

util::SimulatedClock* AdaptiveTest::clock_ = nullptr;
core::DrugTree* AdaptiveTest::dt_ = nullptr;

/// perfbench's small instance (286 nodes), with `activities_per_protein`.
std::unique_ptr<core::DrugTree> BuildSmallInstance(
    util::Clock* clock, double activities_per_protein = 6.0) {
  core::BuildOptions bo;
  bo.seed = 42;
  bo.num_families = 6;
  bo.taxa_per_family = 24;
  bo.num_ligands = 300;
  bo.activities_per_protein = activities_per_protein;
  auto built = core::DrugTree::Build(bo, clock);
  EXPECT_TRUE(built.ok()) << built.status();
  return built.ok() ? std::move(*built) : nullptr;
}

/// Every workload statement at every node: the served overlay, the
/// workload overlay, the subtree proteins, the screening join and the
/// family aggregate at each internal node, and the ancestor path at each
/// leaf, in pre-order.
std::vector<std::string> WorkloadStatements(const core::DrugTree& dt) {
  const phylo::Tree& tree = dt.tree();
  std::vector<std::string> out;
  tree.PreOrder([&](phylo::NodeId node) {
    if (tree.node(node).IsLeaf()) {
      out.push_back(core::MakeQuerySql(core::QueryKind::kAncestorPath, node,
                                       tree, core::WorkloadParams()));
      return;
    }
    out.push_back(dt.OverlayQuerySql(node));
    for (core::QueryKind kind :
         {core::QueryKind::kSubtreeOverlay, core::QueryKind::kSubtreeProteins,
          core::QueryKind::kScreeningJoin,
          core::QueryKind::kFamilyAggregate}) {
      out.push_back(
          core::MakeQuerySql(kind, node, tree, core::WorkloadParams()));
    }
  });
  return out;
}

/// An EXPLAIN ANALYZE rendering without its timings.
std::string WithoutTimes(std::string analyzed) {
  for (size_t at = analyzed.find(" time="); at != std::string::npos;
       at = analyzed.find(" time=", at)) {
    analyzed.erase(at, analyzed.find(')', at) - at);
  }
  return analyzed;
}

/// `params` bound for `plan` from scratch: the ordinals of the literals its
/// tree predicates read as nodes (interval bounds), found by walking it.
util::Result<ParamBindings> BindFromScratch(
    const LogicalNode& plan, const std::vector<storage::Value>& params,
    const Catalog& catalog) {
  std::vector<int> node_ordinals;
  std::function<void(const Expr&)> collect = [&](const Expr& e) {
    if (e.kind == ExprKind::kLiteral && e.param_index >= 0 &&
        e.param_role != ParamRole::kValue &&
        std::find(node_ordinals.begin(), node_ordinals.end(),
                  e.param_index) == node_ordinals.end()) {
      node_ordinals.push_back(e.param_index);
    }
    for (const auto& c : e.children) collect(*c);
  };
  ForEachExpr(plan, collect);
  return BindParams(node_ordinals, params, catalog);
}

/// The from-scratch reference for the classes the plan cache computes:
/// each scan's pushed-down predicate copied under `bindings` and estimated
/// by a cost model built for the statement's aliases.
std::vector<int> CardinalityClasses(const LogicalNode& plan,
                                    const ParamBindings& bindings,
                                    const Catalog& catalog) {
  std::vector<const LogicalNode*> scans;
  std::function<void(const LogicalNode&)> collect =
      [&](const LogicalNode& node) {
        if (node.kind == LogicalKind::kScan) scans.push_back(&node);
        for (const auto& c : node.children) collect(*c);
      };
  collect(plan);
  std::sort(scans.begin(), scans.end(),
            [](const LogicalNode* a, const LogicalNode* b) {
              return a->alias < b->alias;
            });
  std::map<std::string, std::string> alias_to_table;
  for (const LogicalNode* s : scans) alias_to_table[s->alias] = s->table;
  CostModel cost(&catalog, alias_to_table);
  std::vector<int> classes;
  for (const LogicalNode* s : scans) {
    ExprPtr pred =
        s->scan_predicate ? s->scan_predicate->Clone(&bindings) : nullptr;
    classes.push_back(static_cast<int>(
        std::ceil(std::log2(cost.EstimateScanRows(s->alias, pred)))));
  }
  return classes;
}

// ---------------------------------------------------------------------------
// Normalization: one traversal feeds both cache keys.

TEST_F(AdaptiveTest, NormalizationAgreesAcrossEquivalentStatements) {
  auto s1 = ParseQuery(
      "SELECT accession FROM activities WHERE affinity_nm < 50.0");
  auto s2 = ParseQuery(
      "select   accession  from activities  where affinity_nm < 50.0");
  auto s3 = ParseQuery(
      "SELECT accession FROM activities WHERE affinity_nm < 75.0");
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  NormalizedStatement n1 = NormalizeStatement(&*s1);
  NormalizedStatement n2 = NormalizeStatement(&*s2);
  NormalizedStatement n3 = NormalizeStatement(&*s3);

  // Case/whitespace variants collapse to one canonical text and therefore
  // one result-cache key.
  EXPECT_EQ(n1.canonical, n2.canonical);
  EXPECT_EQ(ResultCache::MakeKey(n1.canonical, 7),
            ResultCache::MakeKey(n2.canonical, 7));
  // The canonical text is exactly the statement rendering the result cache
  // has always keyed on.
  EXPECT_EQ(n1.canonical, s1->ToString());

  // Literal variants: same structural fingerprint, different canonical,
  // parameters extracted in order.
  EXPECT_EQ(n1.fingerprint, n3.fingerprint);
  EXPECT_NE(n1.canonical, n3.canonical);
  EXPECT_NE(ResultCache::MakeKey(n1.canonical, 7),
            ResultCache::MakeKey(n3.canonical, 7));
  ASSERT_EQ(n1.params.size(), 1u);
  ASSERT_EQ(n3.params.size(), 1u);
  EXPECT_EQ(n1.params[0], Value::Double(50.0));
  EXPECT_EQ(n3.params[0], Value::Double(75.0));
  // Placeholders are visible in the fingerprint, and the literal is not.
  EXPECT_NE(n1.fingerprint.find("?0"), std::string::npos);
  EXPECT_EQ(n1.fingerprint.find("50"), std::string::npos);
}

TEST_F(AdaptiveTest, NormalizationOrdinalsFollowToStringOrder) {
  auto s = ParseQuery(
      "SELECT accession FROM activities "
      "WHERE affinity_nm > 10.0 AND affinity_nm < 90.0 LIMIT 5");
  ASSERT_TRUE(s.ok());
  NormalizedStatement n = NormalizeStatement(&*s);
  ASSERT_EQ(n.params.size(), 2u);
  EXPECT_EQ(n.params[0], Value::Double(10.0));
  EXPECT_EQ(n.params[1], Value::Double(90.0));
  // LIMIT is not an expression and stays verbatim in the fingerprint: a
  // different LIMIT is a different plan shape.
  EXPECT_NE(n.fingerprint.find("LIMIT 5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Plan cache: hit, re-bind, EXPLAIN surfacing, non-rebindable templates.

TEST_F(AdaptiveTest, PlanCacheHitsAndRebindsWithIdenticalResults) {
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  PlannerOptions opts;
  const std::string q50 =
      "SELECT accession FROM activities WHERE affinity_nm < 50.0 "
      "ORDER BY accession";
  const std::string q75 =
      "SELECT accession FROM activities WHERE affinity_nm < 75.0 "
      "ORDER BY accession";

  auto first = cached.Run(q50, opts);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_plan_cache);
  EXPECT_EQ(cache.stats().installs, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // Same statement: verbatim template reuse.
  auto again = cached.Run(q50, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().rebinds, 0);
  ExpectSameRows(first->result, again->result, "verbatim hit");

  // Different literal: the template re-binds, results match a fresh plan.
  auto rebound = cached.Run(q75, opts);
  ASSERT_TRUE(rebound.ok());
  EXPECT_TRUE(rebound->from_plan_cache);
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().rebinds, 1);
  auto reference = plain.Run(q75, opts);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(reference->result, rebound->result, "rebound");
  EXPECT_GT(rebound->result.rows.size(), first->result.rows.size());

  // EXPLAIN surfaces the cache decision.
  auto explained = cached.Run("EXPLAIN " + q75, opts);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->physical_plan.rfind("plan: cached\n", 0), 0u)
      << explained->physical_plan;
  auto fresh_explained = plain.Run("EXPLAIN " + q75, opts);
  ASSERT_TRUE(fresh_explained.ok());
  EXPECT_EQ(fresh_explained->physical_plan.rfind("plan: cached", 0),
            std::string::npos);

  // A pruned join template re-bound within a clade's cardinality class at
  // the root, a mid clade and a leaf: each clade's statement first plans
  // (or re-binds) with one inner bound, then re-binds with another that
  // keeps the same rows, and the re-bound plan equals a fresh plan of the
  // same statement, in EXPLAIN text (column lists included) and in result.
  const Clades clades = PickClades(*dt_);
  phylo::NodeId leaf = clades.leaf_parent;
  while (!dt_->tree().node(leaf).IsLeaf()) {
    leaf = dt_->tree().node(leaf).children.front();
  }
  auto clade_sql = [](phylo::NodeId node, double max_affinity) {
    const phylo::TreeIndex& index = dt_->tree_index();
    return util::StringPrintf(
        "SELECT p.accession, a.affinity_nm FROM proteins p "
        "JOIN activities a ON p.accession = a.accession "
        "WHERE p.pre >= %d AND p.pre <= %d AND a.affinity_nm < %.1f "
        "ORDER BY a.affinity_nm, p.accession",
        static_cast<int>(index.Pre(node)), static_cast<int>(index.Post(node)),
        max_affinity);
  };
  for (phylo::NodeId node : {clades.root, clades.mid, leaf}) {
    auto installed = cached.Run(clade_sql(node, 1e9), opts);
    ASSERT_TRUE(installed.ok()) << installed.status();
    const std::string sql = clade_sql(node, 2e9);
    const int64_t rebinds = cache.stats().rebinds;
    auto bound = cached.Run(sql, opts);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status();
    EXPECT_TRUE(bound->from_plan_cache) << sql;
    EXPECT_EQ(cache.stats().rebinds, rebinds + 1) << sql;
    auto fresh = plain.Run(sql, opts);
    ASSERT_TRUE(fresh.ok()) << sql << ": " << fresh.status();
    ExpectSameRows(fresh->result, bound->result, "rebound " + sql);
    EXPECT_FALSE(bound->result.rows.empty()) << sql;

    auto bound_plan = cached.Run("EXPLAIN " + sql, opts);
    auto fresh_plan = plain.Run("EXPLAIN " + sql, opts);
    ASSERT_TRUE(bound_plan.ok() && fresh_plan.ok()) << sql;
    ASSERT_EQ(bound_plan->physical_plan.rfind("plan: cached\n", 0), 0u);
    EXPECT_EQ(bound_plan->physical_plan.substr(13), fresh_plan->physical_plan)
        << sql;
    EXPECT_EQ(bound_plan->logical_plan, fresh_plan->logical_plan) << sql;
    EXPECT_NE(bound_plan->physical_plan.find("[columns: "), std::string::npos)
        << bound_plan->physical_plan;
  }
}

// A hit is looked up by the lexer's fingerprint and parses nothing: only
// the miss bumps the query.parse span, and every statement lexes once. The
// cache counts exactly one hit or miss per Run.
TEST_F(AdaptiveTest, PlanCacheHitParsesNothing) {
  obs::Counter* parses =
      obs::MetricRegistry::Default()->GetCounter("span.query.parse.count");
  obs::Counter* lexes =
      obs::MetricRegistry::Default()->GetCounter("span.query.lex.count");
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  const Clades clades = PickClades(*dt_);
  const std::string first = dt_->OverlayQuerySql(clades.mid);
  const std::string second = dt_->OverlayQuerySql(clades.leaf_parent);

  const int64_t parses0 = parses->Value();
  const int64_t lexes0 = lexes->Value();
  auto miss = cached.Run(first, PlannerOptions());
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->from_plan_cache);
  EXPECT_EQ(parses->Value(), parses0 + 1);

  for (const std::string& sql : {first, second, "EXPLAIN " + second}) {
    auto hit = cached.Run(sql, PlannerOptions());
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_TRUE(hit->from_plan_cache) << sql;
  }
  EXPECT_EQ(parses->Value(), parses0 + 1);
  EXPECT_EQ(lexes->Value(), lexes0 + 4);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().misses, 1);
}

// A naive plan and an optimized plan of one statement are different
// templates: whichever runs second on a shared cache plans as a cacheless
// planner does.
TEST_F(AdaptiveTest, PlanCacheKeysOnOptimizerRules) {
  const Clades clades = PickClades(*dt_);
  const std::string sql =
      "EXPLAIN " + core::MakeQuerySql(core::QueryKind::kScreeningJoin,
                                      clades.root, dt_->tree(),
                                      core::WorkloadParams());
  Planner plain(dt_->catalog());
  for (bool naive_first : {true, false}) {
    PlanCache cache;
    Planner cached(dt_->catalog(), nullptr, &cache);
    for (bool naive : {naive_first, !naive_first}) {
      const PlannerOptions opts =
          naive ? PlannerOptions::Naive() : PlannerOptions::Optimized();
      auto got = cached.Run(sql, opts);
      auto want = plain.Run(sql, opts);
      ASSERT_TRUE(got.ok() && want.ok()) << sql;
      EXPECT_FALSE(got->from_plan_cache) << (naive ? "naive" : "optimized");
      EXPECT_EQ(got->logical_plan, want->logical_plan);
      EXPECT_EQ(got->physical_plan, want->physical_plan);
    }
    EXPECT_EQ(cache.stats().installs, 2);
  }
}

// ---------------------------------------------------------------------------
// Re-binding: tree predicates stay parameters through optimization.

// On the benchmark's small instance, the served overlay, the workload
// overlay, the subtree-proteins, the screening-join and the family-aggregate
// statements at every internal node, and the ancestor path at every leaf,
// run through one cache in pre-order. Each statement re-binds a template
// made for another node (or plans the first of its shape and class), and
// runs the one prepared plan of its template: its plan equals a cacheless
// planner's in EXPLAIN, logical and physical; its EXPLAIN ANALYZE counts
// (rows, Next() calls, bytes) equal a cacheless planner's, those of one
// run, not a sum over the plan's runs; and its rows equal the naive plan's.
TEST_F(AdaptiveTest, ReboundPlansEqualFreshPlansAtEveryNode) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> built = BuildSmallInstance(&clock);
  ASSERT_NE(built, nullptr);
  core::DrugTree& dt = *built;
  const phylo::Tree& tree = dt.tree();

  PlanCache cache;
  Planner cached(dt.catalog(), nullptr, &cache);
  Planner fresh(dt.catalog());
  const PlannerOptions opts;
  // The naive reference hashes the three-way join instead of walking its
  // cross product; its join order and unpushed predicates stay naive.
  PlannerOptions reference = PlannerOptions::Naive();
  reference.enable_hash_join = true;

  struct Shape {
    std::function<std::string(phylo::NodeId)> sql;
    bool at_leaves = false;
    int misses = 0;
  };
  auto workload = [&tree](core::QueryKind kind) {
    return [&tree, kind](phylo::NodeId node) {
      return core::MakeQuerySql(kind, node, tree, core::WorkloadParams());
    };
  };
  std::vector<Shape> shapes = {
      {[&dt](phylo::NodeId node) { return dt.OverlayQuerySql(node); }},
      {workload(core::QueryKind::kSubtreeOverlay)},
      {workload(core::QueryKind::kSubtreeProteins)},
      {workload(core::QueryKind::kScreeningJoin)},
      {workload(core::QueryKind::kAncestorPath), /*at_leaves=*/true},
      {workload(core::QueryKind::kFamilyAggregate)},
  };
  int statements = 0;
  for (Shape& shape : shapes) {
    tree.PreOrder([&](phylo::NodeId node) {
      if (tree.node(node).IsLeaf() != shape.at_leaves) return;
      ++statements;
      const std::string sql = shape.sql(node);
      auto explained = cached.Run("EXPLAIN " + sql, opts);
      auto want = fresh.Run("EXPLAIN " + sql, opts);
      ASSERT_TRUE(explained.ok() && want.ok()) << sql;
      std::string physical = explained->physical_plan;
      if (explained->from_plan_cache) {
        ASSERT_EQ(physical.rfind("plan: cached\n", 0), 0u) << physical;
        physical.erase(0, 13);
      } else {
        ++shape.misses;
      }
      EXPECT_EQ(physical, want->physical_plan) << sql;
      EXPECT_EQ(explained->logical_plan, want->logical_plan) << sql;

      auto analyzed = cached.Run("EXPLAIN ANALYZE " + sql, opts);
      auto want_analyzed = fresh.Run("EXPLAIN ANALYZE " + sql, opts);
      ASSERT_TRUE(analyzed.ok() && want_analyzed.ok()) << sql;
      EXPECT_TRUE(analyzed->from_plan_cache) << sql;
      EXPECT_EQ(WithoutTimes(analyzed->analyzed_plan),
                WithoutTimes(want_analyzed->analyzed_plan))
          << sql;

      auto got = cached.Run(sql, opts);
      auto naive = fresh.Run(sql, reference);
      ASSERT_TRUE(got.ok() && naive.ok()) << sql;
      EXPECT_TRUE(got->from_plan_cache) << sql;
      ExpectSameRows(naive->result, got->result, sql);
    });
  }
  const auto leaves = static_cast<int>(tree.Leaves().size());
  EXPECT_EQ(statements, 5 * (static_cast<int>(tree.NumNodes()) - leaves) +
                            leaves);
  // A single-table shape has one template. The screening join has one per
  // class of its clade's protein count (1..144 rows: classes 0..8); its
  // other two scans each keep one class.
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (i == 3) {
      EXPECT_GE(shapes[i].misses, 2);
      EXPECT_LE(shapes[i].misses, 9);
    } else {
      EXPECT_EQ(shapes[i].misses, 1) << "shape " << i;
    }
  }
  EXPECT_GT(cache.stats().rebinds, statements);
}

// ---------------------------------------------------------------------------
// Prepared plans: each planner lowers a template once and re-runs it.

// Two passes of every workload statement at every node through one planner:
// the first lowers one physical plan per template (one
// span.query.plan.physical per install), the second lowers none.
TEST_F(AdaptiveTest, PreparedPlanHitLowersNothing) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildSmallInstance(&clock);
  ASSERT_NE(dt, nullptr);
  obs::Counter* lowerings = obs::MetricRegistry::Default()->GetCounter(
      "span.query.plan.physical.count");
  PlanCache cache;
  Planner planner(dt->catalog(), nullptr, &cache);
  const std::vector<std::string> statements = WorkloadStatements(*dt);
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t before = lowerings->Value();
    const int64_t installs = cache.stats().installs;
    for (const std::string& sql : statements) {
      auto got = planner.Run(sql, PlannerOptions());
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
    }
    EXPECT_EQ(lowerings->Value() - before, cache.stats().installs - installs)
        << "pass " << pass;
    if (pass == 1) {
      EXPECT_EQ(cache.stats().installs, installs);
    }
  }
  EXPECT_EQ(planner.prepared_plans(), cache.stats().installs);
}

/// A clock whose every reading is one microsecond later than the last:
/// a context with deadline K on it cancels at its (K+2)-th check.
class TickingClock : public util::Clock {
 public:
  int64_t NowMicros() const override { return now_++; }
  void AdvanceMicros(int64_t micros) override { now_ += micros; }

 private:
  mutable std::atomic<int64_t> now_{0};
};

// A prepared plan stays reusable after a run that fails: one cancelled
// mid-drain (a deadline that passes at the first checkpoint after every
// operator has opened), one that divides by zero in an index scan's
// residual. The next run of the same template returns the naive rows.
TEST_F(AdaptiveTest, PreparedPlansSurviveCancellationAndRuntimeErrors) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildSmallInstance(&clock);
  ASSERT_NE(dt, nullptr);
  PlanCache cache;
  Planner cached(dt->catalog(), nullptr, &cache);
  Planner plain(dt->catalog());
  const PlannerOptions opts;
  const Clades clades = PickClades(*dt);
  for (const std::string& sql :
       {core::MakeQuerySql(core::QueryKind::kScreeningJoin, clades.root,
                           dt->tree(), core::WorkloadParams()),
        core::MakeQuerySql(core::QueryKind::kFamilyAggregate, clades.root,
                           dt->tree(), core::WorkloadParams())}) {
    auto naive = plain.Run(sql, PlannerOptions::Naive());
    ASSERT_TRUE(naive.ok()) << sql << ": " << naive.status();
    auto explained = plain.Run("EXPLAIN " + sql, opts);
    ASSERT_TRUE(explained.ok()) << explained.status();
    const auto operators = std::count(explained->physical_plan.begin(),
                                      explained->physical_plan.end(), '\n');
    ASSERT_TRUE(cached.Run(sql, opts).ok()) << sql;
    {
      // Run() checks once, then each operator's Open() once: the deadline
      // passes at the first check after those.
      TickingClock ticking;
      QueryContext context;
      context.clock = &ticking;
      context.deadline_micros = operators;
      auto cancelled = cached.Run(sql, opts, &context);
      ASSERT_FALSE(cancelled.ok()) << sql;
      EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();
      EXPECT_EQ(ticking.NowMicros(), operators + 2) << sql;
    }
    auto again = cached.Run(sql, opts);
    ASSERT_TRUE(again.ok()) << sql << ": " << again.status();
    EXPECT_TRUE(again->from_plan_cache);
    ExpectSameRows(naive->result, again->result, "after cancel: " + sql);
  }

  auto accession = dt->Query(
      "SELECT a.accession FROM activities a ORDER BY a.accession LIMIT 1");
  ASSERT_TRUE(accession.ok()) << accession.status();
  auto scan = [&accession](double divisor) {
    return util::StringPrintf(
        "SELECT a.ligand_id, a.affinity_nm FROM activities a "
        "WHERE a.accession = '%s' AND a.affinity_nm / %.1f > 1.0 "
        "ORDER BY a.ligand_id, a.affinity_nm",
        accession->result.rows[0][0].AsString().c_str(), divisor);
  };
  auto naive = plain.Run(scan(2.0), PlannerOptions::Naive());
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_FALSE(naive->result.rows.empty());
  auto explained = cached.Run("EXPLAIN " + scan(2.0), opts);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->physical_plan.find("[residual: "), std::string::npos)
      << explained->physical_plan;
  for (int round = 0; round < 2; ++round) {
    auto failed = cached.Run(scan(0.0), opts);
    ASSERT_FALSE(failed.ok());
    EXPECT_FALSE(failed.status().IsCancelled()) << failed.status();
    auto again = cached.Run(scan(2.0), opts);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(again->from_plan_cache);
    ExpectSameRows(naive->result, again->result, "after a runtime error");
  }
}

// Each run charges its own tracker and leaves it at zero: a prepared plan
// keeps neither charges nor a pointer to a tracker (or context) that its
// run's caller destroys before the next run, which the sanitizer lanes
// would report.
TEST_F(AdaptiveTest, PreparedPlansReleaseChargesEveryRun) {
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  const Clades clades = PickClades(*dt_);
  std::vector<std::string> statements;
  for (phylo::NodeId node : {clades.root, clades.mid, clades.leaf_parent}) {
    for (core::QueryKind kind :
         {core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
          core::QueryKind::kSubtreeProteins,
          core::QueryKind::kSubtreeOverlay}) {
      statements.push_back(
          core::MakeQuerySql(kind, node, dt_->tree(), core::WorkloadParams()));
    }
  }
  statements.push_back(
      "SELECT p.family, COUNT(*) AS n FROM proteins p "
      "JOIN activities a ON p.accession = a.accession "
      "WHERE a.affinity_nm < 5000.0 GROUP BY p.family ORDER BY p.family");
  for (int round = 0; round < 2; ++round) {
    for (const std::string& sql : statements) {
      obs::MemoryTracker memory("run", nullptr, 0, 64 << 20);
      QueryContext context;
      context.memory = &memory;
      auto got = cached.Run(sql, PlannerOptions(), &context);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
      EXPECT_EQ(memory.used(), 0) << sql;
      if (!got->result.rows.empty()) {
        EXPECT_GT(memory.peak(), 0) << sql;
      }
      auto want = plain.Run(sql, PlannerOptions());
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectSameRows(want->result, got->result, sql);
    }
  }
  EXPECT_GT(cache.stats().hits, static_cast<int64_t>(statements.size()));
}

// One planner alternates parallelism 1, 4, 2 and 4: a pool replaced by a
// parallelism change takes the plans lowered against it along, so the
// planner holds the serial plans and the current pool's, never one on a
// destroyed pool. The activities table is large enough for morsel-parallel
// hash-join builds.
TEST_F(AdaptiveTest, PreparedPlansFollowParallelismChanges) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt =
      BuildSmallInstance(&clock, /*activities_per_protein=*/16.0);
  ASSERT_NE(dt, nullptr);
  ASSERT_GE(dt->activities()->NumRows(), 2048);
  PlanCache cache;
  Planner cached(dt->catalog(), nullptr, &cache);
  Planner plain(dt->catalog());
  const Clades clades = PickClades(*dt);
  const std::vector<std::string> statements = {
      core::MakeQuerySql(core::QueryKind::kScreeningJoin, clades.root,
                         dt->tree(), core::WorkloadParams()),
      core::MakeQuerySql(core::QueryKind::kScreeningJoin, clades.mid,
                         dt->tree(), core::WorkloadParams()),
      core::MakeQuerySql(core::QueryKind::kFamilyAggregate, clades.root,
                         dt->tree(), core::WorkloadParams()),
  };
  std::vector<QueryResult> reference;
  for (const std::string& sql : statements) {
    auto naive = plain.Run(sql, PlannerOptions::Naive());
    ASSERT_TRUE(naive.ok()) << naive.status();
    reference.push_back(std::move(naive->result));
  }
  size_t serial_plans = 0;
  for (int parallelism : {1, 4, 2, 4}) {
    PlannerOptions opts;
    opts.parallelism = parallelism;
    const int64_t installs = cache.stats().installs;
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < statements.size(); ++i) {
        auto got = cached.Run(statements[i], opts);
        ASSERT_TRUE(got.ok()) << statements[i] << ": " << got.status();
        ExpectSameRows(reference[i], got->result,
                       util::StringPrintf("parallelism %d: ", parallelism) +
                           statements[i]);
      }
    }
    // Parallelism is not a plan-cache key: the templates stay.
    if (parallelism != 1) {
      EXPECT_EQ(cache.stats().installs, installs);
    }
    const size_t templates = static_cast<size_t>(cache.stats().installs);
    if (parallelism == 1) serial_plans = cached.prepared_plans();
    EXPECT_EQ(serial_plans, templates);
    EXPECT_EQ(cached.prepared_plans(),
              parallelism == 1 ? templates : serial_plans + templates)
        << "parallelism " << parallelism;
  }
}

// A write that invalidates a template frees it, and the next lowering
// prunes the planner's plan of it: the planner holds only the new
// template's plan, whose rows include the write.
TEST_F(AdaptiveTest, PreparedPlansDieWithTheirTemplates) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildSmallInstance(&clock);
  ASSERT_NE(dt, nullptr);
  PlanCache cache;
  Planner planner(dt->catalog(), nullptr, &cache);
  const std::string sql =
      "SELECT COUNT(*) AS n FROM activities a WHERE a.affinity_nm < 1e9";
  auto first = planner.Run(sql, PlannerOptions());
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(planner.Run(sql, PlannerOptions()).ok());
  EXPECT_EQ(planner.prepared_plans(), 1u);

  auto lexed = Lex(sql);
  ASSERT_TRUE(lexed.ok());
  const PlanCache::Key key{lexed->fingerprint,
                           PlanCache::RuleFlags(OptimizerOptions())};
  std::weak_ptr<LogicalNode> old_template;
  {
    auto lookup = cache.Get(key, *dt->catalog(), lexed->params);
    ASSERT_TRUE(lookup.ok() && lookup->plan != nullptr);
    old_template = lookup->plan;
  }

  auto row = dt->Query("SELECT accession, ligand_id FROM activities LIMIT 1");
  ASSERT_TRUE(row.ok() && row->result.rows.size() == 1u);
  ASSERT_TRUE(dt->AddActivity(row->result.rows[0][0].AsString(),
                              row->result.rows[0][1].AsString(), 12.5)
                  .ok());
  ASSERT_TRUE(dt->BuildEncodedSegments().ok());

  auto after = planner.Run(sql, PlannerOptions());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->from_plan_cache);
  EXPECT_TRUE(old_template.expired());
  EXPECT_EQ(planner.prepared_plans(), 1u);
  EXPECT_EQ(after->result.rows[0][0].AsInt64(),
            first->result.rows[0][0].AsInt64() + 1);
  auto hit = planner.Run(sql, PlannerOptions());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_plan_cache);
  EXPECT_EQ(hit->result.rows, after->result.rows);
}

// The classes a lookup computes through its entry's classifier equal the
// classes computed from scratch (a freshly optimized plan, its predicates
// copied under the statement's bindings), for every workload statement at
// every node of the small instance.
TEST_F(AdaptiveTest, CacheClassesMatchFromScratchClasses) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildSmallInstance(&clock);
  ASSERT_NE(dt, nullptr);
  const Catalog& catalog = *dt->catalog();
  PlanCache cache;
  Planner planner(dt->catalog(), nullptr, &cache);
  int multi_table = 0;
  for (const std::string& sql : WorkloadStatements(*dt)) {
    ASSERT_TRUE(planner.Run(sql, PlannerOptions()).ok()) << sql;
    auto lexed = Lex(sql);
    ASSERT_TRUE(lexed.ok()) << lexed.status();
    auto lookup = cache.Get(
        {lexed->fingerprint, PlanCache::RuleFlags(OptimizerOptions())},
        catalog, lexed->params);
    ASSERT_TRUE(lookup.ok()) << lookup.status();
    EXPECT_NE(lookup->plan, nullptr) << sql;

    auto stmt = ParseQuery(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    if (stmt->tables.size() < 2) {
      EXPECT_TRUE(lookup->classes.empty()) << sql;
      continue;
    }
    ++multi_table;
    NormalizedStatement norm = NormalizeStatement(&*stmt);
    auto logical = BuildLogicalPlan(*stmt, catalog);
    ASSERT_TRUE(logical.ok()) << logical.status();
    auto optimized = OptimizeLogicalPlan(*logical, catalog, OptimizerOptions());
    ASSERT_TRUE(optimized.ok()) << optimized.status();
    auto bindings = BindFromScratch(**optimized, norm.params, catalog);
    ASSERT_TRUE(bindings.ok()) << bindings.status();
    EXPECT_EQ(lookup->classes,
              CardinalityClasses(**optimized, *bindings, catalog))
        << sql;
  }
  EXPECT_GT(multi_table, 200);
}

// Constant folding consumes both literals of 10.0 * 5.0, so the template
// holds only for its own parameter values: another product re-plans.
TEST_F(AdaptiveTest, FoldedLiteralsMakeTemplatesNonRebindable) {
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  PlannerOptions opts;
  auto sql = [](double factor) {
    return util::StringPrintf(
        "SELECT a.accession, a.affinity_nm FROM activities a "
        "WHERE a.affinity_nm < 10.0 * %.1f "
        "ORDER BY a.affinity_nm, a.accession",
        factor);
  };

  auto first = cached.Run(sql(5.0), opts);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_plan_cache);

  // Same shape, other literals: a structural hit the cache must refuse.
  auto other = cached.Run(sql(50.0), opts);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->from_plan_cache);
  EXPECT_EQ(cache.stats().rebinds, 0);
  auto reference = plain.Run(sql(50.0), opts);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(reference->result, other->result, "non-rebindable re-plan");
  EXPECT_GT(other->result.rows.size(), first->result.rows.size());

  // Identical parameters still reuse the (now reinstalled) template.
  auto again = cached.Run(sql(50.0), opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
  EXPECT_EQ(cache.stats().rebinds, 0);
  ExpectSameRows(reference->result, again->result, "identical-param hit");
}

// An unknown SUBTREE node fails as a cacheless planner fails it: on a miss
// (the tree rewrite resolves it) and on a re-bind (binding resolves it, or
// classifying the screening join's scans does), and the template stays.
TEST_F(AdaptiveTest, UnknownTreeNodeFailsAlikeOnMissAndRebind) {
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  PlannerOptions opts;
  const phylo::NodeId root = dt_->tree().root();
  const auto unknown = static_cast<phylo::NodeId>(dt_->tree().NumNodes() + 7);
  const std::vector<std::function<std::string(phylo::NodeId)>> makers = {
      [](phylo::NodeId node) { return dt_->OverlayQuerySql(node); },
      [](phylo::NodeId node) {
        return core::MakeQuerySql(core::QueryKind::kScreeningJoin, node,
                                  dt_->tree(), core::WorkloadParams());
      },
  };
  for (const auto& make : makers) {
    const std::string bad = make(unknown);
    auto want = plain.Run(bad, opts);
    ASSERT_FALSE(want.ok()) << bad;
    EXPECT_TRUE(want.status().IsNotFound()) << want.status();

    auto miss = cached.Run(bad, opts);
    ASSERT_FALSE(miss.ok()) << bad;
    EXPECT_EQ(miss.status().ToString(), want.status().ToString());

    ASSERT_TRUE(cached.Run(make(root), opts).ok());
    // A re-bind whose binding fails is a miss, not a hit.
    const PlanCache::Stats before = cache.stats();
    auto rebind = cached.Run(bad, opts);
    ASSERT_FALSE(rebind.ok()) << bad;
    EXPECT_EQ(rebind.status().ToString(), want.status().ToString());
    const PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.hits, before.hits) << bad;
    EXPECT_EQ(after.rebinds, before.rebinds) << bad;
    EXPECT_EQ(after.misses, before.misses + 1) << bad;

    auto again = cached.Run(make(root), opts);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(again->from_plan_cache);
  }
}

/// The cardinality classes of `sql`'s freshly optimized plan.
std::vector<int> ClassesOf(const std::string& sql, const Catalog& catalog) {
  auto stmt = ParseQuery(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  NormalizedStatement norm = NormalizeStatement(&*stmt);
  auto logical = BuildLogicalPlan(*stmt, catalog);
  EXPECT_TRUE(logical.ok()) << logical.status();
  auto optimized = OptimizeLogicalPlan(*logical, catalog, OptimizerOptions());
  EXPECT_TRUE(optimized.ok()) << optimized.status();
  auto bindings = BindFromScratch(**optimized, norm.params, catalog);
  EXPECT_TRUE(bindings.ok()) << bindings.status();
  return CardinalityClasses(**optimized, *bindings, catalog);
}

// A screening join planned at a leaf clade is not re-bound at the root,
// whose protein scan falls in another cardinality class; another clade of
// the leaf clade's class re-binds it.
TEST_F(AdaptiveTest, LeafCladeTemplateIsNotReboundAtRoot) {
  const Clades clades = PickClades(*dt_);
  auto sql = [](phylo::NodeId node) {
    return core::MakeQuerySql(core::QueryKind::kScreeningJoin, node,
                              dt_->tree(), core::WorkloadParams());
  };
  const std::vector<int> leaf_classes =
      ClassesOf(sql(clades.leaf_parent), *dt_->catalog());
  ASSERT_NE(leaf_classes, ClassesOf(sql(clades.root), *dt_->catalog()));
  phylo::NodeId sibling = phylo::kInvalidNode;
  dt_->tree().PreOrder([&](phylo::NodeId node) {
    if (sibling == phylo::kInvalidNode && node != clades.leaf_parent &&
        !dt_->tree().node(node).IsLeaf() &&
        ClassesOf(sql(node), *dt_->catalog()) == leaf_classes) {
      sibling = node;
    }
  });
  ASSERT_NE(sibling, phylo::kInvalidNode);

  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  PlannerOptions opts;
  auto leaf = cached.Run(sql(clades.leaf_parent), opts);
  ASSERT_TRUE(leaf.ok()) << leaf.status();
  EXPECT_FALSE(leaf->from_plan_cache);

  auto root = cached.Run(sql(clades.root), opts);
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_FALSE(root->from_plan_cache);
  EXPECT_EQ(cache.stats().rebinds, 0);
  auto root_fresh = plain.Run(sql(clades.root), opts);
  ASSERT_TRUE(root_fresh.ok());
  ExpectSameRows(root_fresh->result, root->result, "root re-plan");

  auto other = cached.Run(sql(sibling), opts);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_TRUE(other->from_plan_cache);
  EXPECT_EQ(cache.stats().rebinds, 1);
  auto other_fresh = plain.Run(sql(sibling), opts);
  ASSERT_TRUE(other_fresh.ok());
  ExpectSameRows(other_fresh->result, other->result, "same-class re-bind");
}

/// True iff no expression node below `expr` is bound to a column index.
bool Unbound(const Expr* expr) {
  if (expr == nullptr) return true;
  if (expr->bound_index != -1) return false;
  for (const auto& c : expr->children) {
    if (!Unbound(c.get())) return false;
  }
  return true;
}

bool Unbound(const LogicalNode& node) {
  bool unbound = true;
  ForEachExpr(node, [&unbound](const Expr& e) { unbound &= Unbound(&e); });
  return unbound;
}

// Physical planning binds column refs in place, so it must bind copies: a
// cached template is shared by every planner using the cache. Threads with
// their own planners share one cache and run statements that lower to an
// index nested-loop join, an index scan with a residual and a hash join,
// reusing templates verbatim and re-binding them to new literals. Every
// result matches the naive plan, and afterwards no cached template holds a
// bound column.
TEST_F(AdaptiveTest, SharedTemplatesAreNeverBound) {
  auto accessions = dt_->Query(
      "SELECT DISTINCT a.accession FROM activities a ORDER BY a.accession "
      "LIMIT 3");
  ASSERT_TRUE(accessions.ok()) << accessions.status();
  ASSERT_EQ(accessions->result.rows.size(), 3u);
  struct Shape {
    std::string op;  // the operator the statements lower to
    std::vector<std::string> sqls;
  };
  std::vector<Shape> shapes(3);
  shapes[0].op = "IndexNestedLoopJoin activities AS a";
  shapes[1].op = "IndexScan activities.accession";
  shapes[2].op = "HashJoin";
  for (int i = 0; i < 3; ++i) {
    shapes[0].sqls.push_back(util::StringPrintf(
        "SELECT p.accession, a.ligand_id, a.affinity_nm FROM proteins p "
        "JOIN activities a ON p.accession = a.accession "
        "WHERE p.pre >= %d AND p.pre <= %d "
        "ORDER BY p.accession, a.ligand_id, a.affinity_nm",
        8 * i, 8 * i + 6));
    shapes[1].sqls.push_back(util::StringPrintf(
        "SELECT a.ligand_id, a.affinity_nm FROM activities a "
        "WHERE a.accession = '%s' AND a.affinity_nm < %d.0 "
        "ORDER BY a.ligand_id, a.affinity_nm",
        accessions->result.rows[static_cast<size_t>(i)][0].AsString().c_str(),
        2000 + 1000 * i));
    shapes[2].sqls.push_back(util::StringPrintf(
        "SELECT p.accession, a.ligand_id, a.affinity_nm FROM proteins p "
        "JOIN activities a ON p.accession = a.accession "
        "WHERE a.affinity_nm < %d.0 "
        "ORDER BY p.accession, a.ligand_id, a.affinity_nm",
        10 + 10 * i));
  }
  Planner plain(dt_->catalog());
  std::vector<std::vector<QueryResult>> reference(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    size_t rows = 0;
    for (const std::string& sql : shapes[s].sqls) {
      auto explained = plain.Run("EXPLAIN " + sql, PlannerOptions());
      ASSERT_TRUE(explained.ok()) << sql << ": " << explained.status();
      EXPECT_NE(explained->physical_plan.find(shapes[s].op),
                std::string::npos)
          << explained->physical_plan;
      auto naive = plain.Run(sql, PlannerOptions::Naive());
      ASSERT_TRUE(naive.ok()) << sql << ": " << naive.status();
      rows += naive->result.rows.size();
      reference[s].push_back(std::move(naive->result));
    }
    EXPECT_GT(rows, 0u) << shapes[s].op;
  }

  PlanCache cache;
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Planner planner(dt_->catalog(), nullptr, &cache);
      for (int round = 0; round < 3; ++round) {
        for (size_t s = 0; s < shapes.size(); ++s) {
          for (size_t i = 0; i < shapes[s].sqls.size(); ++i) {
            const size_t v = (i + t) % shapes[s].sqls.size();
            auto got = planner.Run(shapes[s].sqls[v], PlannerOptions());
            EXPECT_TRUE(got.ok()) << shapes[s].sqls[v] << ": "
                                  << got.status();
            if (!got.ok()) continue;
            ExpectSameRows(reference[s][v], got->result, shapes[s].sqls[v]);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const PlanCache::Stats stats = cache.stats();
  EXPECT_GT(stats.rebinds, 0);
  EXPECT_GT(stats.hits, stats.rebinds);  // verbatim reuse too

  for (const Shape& shape : shapes) {
    for (const std::string& sql : shape.sqls) {
      // The key Planner::Run looks up: the lexer's fingerprint and literals.
      auto lexed = Lex(sql);
      ASSERT_TRUE(lexed.ok()) << lexed.status();
      auto lookup = cache.Get(
          {lexed->fingerprint, PlanCache::RuleFlags(OptimizerOptions())},
          *dt_->catalog(), lexed->params);
      ASSERT_TRUE(lookup.ok()) << lookup.status();
      ASSERT_NE(lookup->plan, nullptr) << sql;
      EXPECT_TRUE(Unbound(*lookup->plan)) << sql;
    }
  }
}

TEST_F(AdaptiveTest, PlanCacheInvalidationEdges) {
  util::SimulatedClock clock;
  core::BuildOptions bo;
  bo.seed = 7;
  bo.num_families = 2;
  bo.taxa_per_family = 6;
  bo.sequence_length = 60;
  bo.num_ligands = 40;
  auto built = core::DrugTree::Build(bo, &clock);
  ASSERT_TRUE(built.ok()) << built.status();
  auto dt = std::move(*built);

  PlanCache cache;
  Planner planner(dt->catalog(), nullptr, &cache);
  PlannerOptions opts;
  const std::string q =
      "SELECT COUNT(*) FROM activities WHERE affinity_nm < 100000.0";
  auto run = [&]() {
    auto r = planner.Run(q, opts);
    EXPECT_TRUE(r.ok()) << r.status();
    return *std::move(r);
  };

  QueryOutcome base = run();
  EXPECT_FALSE(base.from_plan_cache);
  ASSERT_EQ(base.result.rows.size(), 1u);
  int64_t count0 = base.result.rows[0][0].AsInt64();
  EXPECT_TRUE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 0);

  // Analyze() refreshes the statistics the cached plan was priced with.
  auto activities = dt->catalog()->Lookup("activities");
  ASSERT_TRUE(activities.ok());
  ASSERT_TRUE((*activities)->Analyze().ok());
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_TRUE(run().from_plan_cache);

  // Dropping encoded segments changes the priced access paths.
  dt->DropEncodedSegments();
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 2);
  EXPECT_TRUE(run().from_plan_cache);

  // Building them changes the paths back.
  ASSERT_TRUE(dt->BuildEncodedSegments().ok());
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 3);
  EXPECT_TRUE(run().from_plan_cache);

  // Rebuilding snapshots that are still fresh changes nothing: the
  // template stays.
  ASSERT_TRUE(dt->BuildEncodedSegments().ok());
  EXPECT_TRUE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 3);

  // An overlay mutation (row insert + epoch bump) must both evict the
  // template and surface the new row — stale template, never stale data.
  auto seed_row =
      dt->Query("SELECT accession, ligand_id FROM activities LIMIT 1");
  ASSERT_TRUE(seed_row.ok());
  ASSERT_EQ(seed_row->result.rows.size(), 1u);
  ASSERT_TRUE(dt->AddActivity(seed_row->result.rows[0][0].AsString(),
                              seed_row->result.rows[0][1].AsString(), 12.5)
                  .ok());
  QueryOutcome after = run();
  EXPECT_FALSE(after.from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 4);
  EXPECT_EQ(after.result.rows[0][0].AsInt64(), count0 + 1);
  EXPECT_TRUE(run().from_plan_cache);

  // A new index is an access path the cached plan was priced without.
  ASSERT_TRUE(
      (*activities)->CreateIndex("ligand_id", storage::IndexKind::kHash).ok());
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 5);
  EXPECT_TRUE(run().from_plan_cache);
}

// Serving with every request analyzed (slow-query forensics armed with a
// threshold no request reaches) keeps its cached plans: operator timings
// price nothing, so no lookup is invalidated and every request after a
// template's install hits it. Once over encoded snapshots, and once over
// plain tables, whose scans are timed as plain scans.
TEST_F(AdaptiveTest, AnalyzedServingKeepsCachedPlans) {
  util::SimulatedClock clock;
  std::unique_ptr<core::DrugTree> dt = BuildSmallInstance(&clock);
  ASSERT_NE(dt, nullptr);
  const Clades clades = PickClades(*dt);
  std::vector<std::string> statements;
  for (core::QueryKind kind :
       {core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate}) {
    for (phylo::NodeId node : {clades.root, clades.mid, clades.leaf_parent}) {
      statements.push_back(
          core::MakeQuerySql(kind, node, dt->tree(), core::WorkloadParams()));
    }
  }
  for (bool snapshots : {true, false}) {
    SCOPED_TRACE(snapshots ? "encoded snapshots" : "plain tables");
    if (!snapshots) dt->DropEncodedSegments();
    server::ServerOptions options;
    options.worker_threads = 2;
    options.slow_query_micros = int64_t{1} << 40;  // analyzed, never logged
    auto server = dt->MakeServer(options, util::RealClock::Instance());
    int64_t requests = 0;
    for (int round = 0; round < 20; ++round) {
      for (const std::string& sql : statements) {
        server::QueryRequest r;
        r.sql = sql;
        auto got = server->Submit(std::move(r));
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
        ++requests;
      }
    }
    server->Drain();
    for (const obs::TraceRecord& record : server->trace_store()->Snapshot()) {
      EXPECT_FALSE(record.analyzed_plan.empty());
    }
    EXPECT_EQ(server->trace_store()->slow_count(), 0);
    const PlanCache::Stats stats = server->plan_cache()->stats();
    EXPECT_EQ(stats.invalidations, 0);
    EXPECT_EQ(stats.hits, requests - stats.installs);
  }
}

// ---------------------------------------------------------------------------
// Adaptive controller: hysteresis walk of the analytic knobs.

TEST(AdaptiveControllerTest, HysteresisWalksAnalyticKnobs) {
  server::AdaptiveOptions o;
  o.enabled = true;
  o.window = 4;
  o.target_micros = 2000;
  o.hysteresis = 2;
  server::AdaptiveController c(o);

  // Analytic starts wide; interactive knobs are fixed.
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 4);
  EXPECT_EQ(c.knobs(server::QueryClass::kInteractive).parallelism, 1);

  auto feed = [&](int n, int64_t micros) {
    for (int i = 0; i < n; ++i) {
      c.Record(server::QueryClass::kInteractive, micros);
    }
  };

  // Analytic completions are not a control signal.
  for (int i = 0; i < 32; ++i) {
    c.Record(server::QueryClass::kAnalytic, 1'000'000);
  }
  EXPECT_EQ(c.decisions(), 0);

  // Two pressured windows step analytic down twice.
  feed(4, 5000);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 3);
  feed(4, 5000);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 2);
  EXPECT_EQ(c.steps_down(), 2);

  // One comfortable window is noise: hysteresis holds.
  feed(4, 100);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 2);
  // An in-band window resets the streak.
  feed(4, 1500);
  feed(4, 100);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 2);
  // The second consecutive comfortable window steps back up.
  feed(4, 100);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 3);
  EXPECT_EQ(c.steps_up(), 1);

  // Interactive knobs never moved.
  EXPECT_EQ(c.knobs(server::QueryClass::kInteractive).parallelism, 1);
}

TEST(AdaptiveControllerTest, DisabledControllerIgnoresRecords) {
  server::AdaptiveController c{server::AdaptiveOptions()};
  for (int i = 0; i < 256; ++i) {
    c.Record(server::QueryClass::kInteractive, 1'000'000);
  }
  EXPECT_EQ(c.decisions(), 0);
  EXPECT_EQ(c.knobs(server::QueryClass::kAnalytic).parallelism, 4);
}

// ---------------------------------------------------------------------------
// Invariance: cache on vs off, across execution knobs.

TEST_F(AdaptiveTest, CorpusBitIdenticalWithCacheArmed) {
  PlanCache cache;
  Planner armed(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  for (const std::string& sql : Corpus()) {
    PlannerOptions ref_opts;
    auto reference = plain.Run(sql, ref_opts);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status();
    // An analyzed run first (the analyze clock is the tracer's, i.e. real
    // time); the later runs reuse the plan it installed.
    auto analyzed = armed.Run("EXPLAIN ANALYZE " + sql, ref_opts);
    ASSERT_TRUE(analyzed.ok()) << sql << ": " << analyzed.status();
    ExpectSameRows(reference->result, analyzed->result, "analyze " + sql);
    for (int par : {1, 4}) {
      PlannerOptions opts;
      opts.parallelism = par;
      for (int round = 0; round < 2; ++round) {  // miss, then hit
        auto got = armed.Run(sql, opts);
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status();
        ExpectSameRows(reference->result, got->result,
                       sql + util::StringPrintf(" [par=%d round=%d]", par,
                                                round));
      }
    }
  }
  EXPECT_GT(cache.stats().hits, 0);
}

// ---------------------------------------------------------------------------
// Serving layer: concurrent submissions with every feature armed (TSan
// exercises PlanCache / AdaptiveController sharing), and Statusz surfacing.

TEST_F(AdaptiveTest, ConcurrentServingWithAllAdaptiveFeaturesArmed) {
  server::ServerOptions options;
  options.worker_threads = 4;
  options.scheduler.total_slots = 4;
  options.scheduler.interactive_slots = 4;
  options.admission.interactive_queue_capacity = 64;
  options.admission.analytic_queue_capacity = 64;
  options.slow_query_micros = 1;  // every request runs analyzed
  options.adaptive.enabled = true;
  options.adaptive.window = 4;
  auto server = dt_->MakeServer(options);

  const std::string interactive_sql = dt_->OverlayQuerySql(dt_->tree().root());
  auto reference_interactive = dt_->Query(interactive_sql);
  ASSERT_TRUE(reference_interactive.ok());

  std::vector<std::string> analytic_sqls;
  std::vector<query::QueryResult> analytic_refs;
  for (int i = 0; i < 4; ++i) {
    analytic_sqls.push_back(util::StringPrintf(
        "SELECT accession FROM activities WHERE affinity_nm < %d.0 "
        "ORDER BY accession",
        100 + 50 * i));
    auto ref = dt_->Query(analytic_sqls.back());
    ASSERT_TRUE(ref.ok());
    analytic_refs.push_back(ref->result);
  }

  std::vector<server::ResponseHandle> handles;
  std::vector<int> expected;  // -1 = interactive, else analytic index
  for (int i = 0; i < 24; ++i) {
    server::QueryRequest r;
    r.session_id = static_cast<uint64_t>(i);
    if (i % 2 == 0) {
      r.sql = interactive_sql;
      r.query_class = server::QueryClass::kInteractive;
      expected.push_back(-1);
    } else {
      r.sql = analytic_sqls[static_cast<size_t>(i / 2) % analytic_sqls.size()];
      r.query_class = server::QueryClass::kAnalytic;
      expected.push_back(static_cast<int>((i / 2) % analytic_sqls.size()));
    }
    handles.push_back(server->SubmitAsync(std::move(r)));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    auto r = handles[i].Wait();
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.status();
    const query::QueryResult& want =
        expected[i] < 0 ? reference_interactive->result
                        : analytic_refs[static_cast<size_t>(expected[i])];
    ExpectSameRows(want, r->result,
                   util::StringPrintf("request %zu", i));
  }
  server->Drain();

  // Repeated shapes hit the shared plan cache.
  PlanCache::Stats stats = server->plan_cache()->stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.installs, 0);

  // Statusz surfaces both adaptive blocks.
  std::string statusz = server->Statusz();
  EXPECT_NE(statusz.find("\"plan_cache\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"adaptive\":{"), std::string::npos);
}

TEST_F(AdaptiveTest, DisablingPlanCacheMatchesEnabled) {
  server::ServerOptions off;
  off.enable_plan_cache = false;
  auto server_off = dt_->MakeServer(off);
  auto server_on = dt_->MakeServer();
  for (const std::string& sql : Corpus()) {
    for (int round = 0; round < 2; ++round) {
      server::QueryRequest a;
      a.session_id = 1;
      a.sql = sql;
      server::QueryRequest b = a;
      auto ra = server_off->Submit(std::move(a));
      auto rb = server_on->Submit(std::move(b));
      ASSERT_TRUE(ra.ok()) << sql << ": " << ra.status();
      ASSERT_TRUE(rb.ok()) << sql << ": " << rb.status();
      ExpectSameRows(ra->result, rb->result, sql);
    }
  }
  EXPECT_EQ(server_off->plan_cache()->stats().installs, 0);
  EXPECT_GT(server_on->plan_cache()->stats().hits, 0);
}

// ---------------------------------------------------------------------------
// Sharded topologies: plan caches live in every replica and the
// coordinator; results stay row-for-row identical to the single node.

TEST_F(AdaptiveTest, ShardedTopologiesBitIdenticalWithCachesOn) {
  for (int shards : {2, 4}) {
    for (int replicas : {1, 2}) {
      shard::RouterOptions ro;
      ro.num_shards = shards;
      ro.replicas_per_shard = replicas;
      auto router = dt_->MakeShardRouter(ro);
      ASSERT_TRUE(router.ok()) << router.status();
      for (const std::string& sql : Corpus()) {
        auto reference = dt_->Query(sql);
        ASSERT_TRUE(reference.ok()) << sql;
        for (int round = 0; round < 2; ++round) {  // second round hits caches
          server::QueryRequest r;
          r.session_id = 1;
          r.sql = sql;
          auto got = (*router)->Submit(std::move(r));
          ASSERT_TRUE(got.ok())
              << "N=" << shards << " R=" << replicas << " " << sql << ": "
              << got.status();
          ExpectSameRows(reference->result, got->result,
                         util::StringPrintf("N=%d R=%d round=%d %s", shards,
                                            replicas, round, sql.c_str()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace drugtree
