// Adaptive-planning tests: literal normalization agrees across the result
// and plan caches, the parameterized plan cache hits / re-binds / re-plans
// soundly, version bumps (mutations, Analyze, encoded builds/drops)
// invalidate templates, the cost calibrator seeds, clamps, and stays put on
// a virtual clock, the adaptive controller walks analytic knobs with
// hysteresis, and the full corpus stays bit-identical with every adaptive
// feature armed — across parallelism, concurrent serving, and sharded
// topologies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/drugtree.h"
#include "obs/cost_calibrator.h"
#include "obs/explain.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/result_cache.h"
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
}

TEST_F(AdaptiveTest, ConsumedLiteralsMakeTemplatesNonRebindable) {
  // The tree-predicate rewrite resolves SUBTREE's node literal into
  // interval constants at plan time, so the overlay template must NOT be
  // re-bound to a different node — the cache re-plans instead.
  PlanCache cache;
  Planner cached(dt_->catalog(), nullptr, &cache);
  Planner plain(dt_->catalog());
  PlannerOptions opts;
  phylo::NodeId root = dt_->tree().root();
  phylo::NodeId inner = dt_->tree().node(root).children.front();
  const std::string q_root = dt_->OverlayQuerySql(root);
  const std::string q_inner = dt_->OverlayQuerySql(inner);
  ASSERT_NE(q_root, q_inner);

  auto first = cached.Run(q_root, opts);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_plan_cache);

  // Same shape, different node: a structural hit the cache must refuse.
  auto other = cached.Run(q_inner, opts);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->from_plan_cache);
  EXPECT_EQ(cache.stats().rebinds, 0);
  auto reference = plain.Run(q_inner, opts);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(reference->result, other->result, "non-rebindable re-plan");

  // Identical parameters still reuse the (now reinstalled) template.
  auto again = cached.Run(q_inner, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_plan_cache);
  ExpectSameRows(reference->result, again->result, "identical-param hit");
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

  // Building encoded segments changes the priced access paths.
  ASSERT_TRUE(dt->BuildEncodedSegments().ok());
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 2);
  EXPECT_TRUE(run().from_plan_cache);

  // Dropping them changes the paths back.
  dt->DropEncodedSegments();
  EXPECT_FALSE(run().from_plan_cache);
  EXPECT_EQ(cache.stats().invalidations, 3);
  EXPECT_TRUE(run().from_plan_cache);

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
}

// ---------------------------------------------------------------------------
// Cost calibrator: seeding, clamping, versioning, virtual-clock no-op.

obs::ExplainNode MakeNode(std::string label, int64_t rows, int64_t micros) {
  obs::ExplainNode n;
  n.label = std::move(label);
  n.rows_out = rows;
  n.elapsed_micros = micros;
  return n;
}

TEST(CostCalibratorTest, VirtualClockObservationsAreNoOps) {
  obs::CostCalibrator cal;
  // elapsed_micros == 0 is exactly what a SimulatedClock produces.
  cal.Observe(MakeNode("SeqScan proteins", 100, 0));
  cal.Observe(MakeNode("HashJoin [x = y]", 0, 500));  // zero rows: unusable
  cal.Observe(MakeNode("IndexNestedLoopJoin activities AS a ON x = a.y", 100,
                       0));
  EXPECT_EQ(cal.observations(), 0);
  EXPECT_EQ(cal.effective_updates(), 0);
  obs::CalibratedCosts defaults;
  obs::CalibratedCosts got = cal.snapshot();
  EXPECT_EQ(got.version, 0u);
  EXPECT_EQ(got.hash_probe_row, defaults.hash_probe_row);
  EXPECT_EQ(got.nested_loop_row, defaults.nested_loop_row);
  EXPECT_EQ(got.index_row, defaults.index_row);
}

TEST(CostCalibratorTest, SeqScanSeedsTheUnitAndCoefficientsClamp) {
  obs::CostCalibrator cal;
  // 1000 rows in 2000us: the sequential-scan unit is 2us/row. Alone it
  // changes nothing (every coefficient is relative to it).
  cal.Observe(MakeNode("SeqScan proteins AS p", 1000, 2000));
  EXPECT_EQ(cal.observations(), 1);
  EXPECT_EQ(cal.snapshot().version, 0u);

  // Hash join at 20us/row = 10 units/row, clamped to 4x the 1.0 default.
  obs::ExplainNode join =
      MakeNode("HashJoin [p.accession = a.accession]", 100, 6000);
  join.children.push_back(MakeNode("SeqScan proteins AS p", 1000, 2000));
  join.children.push_back(MakeNode("SeqScan activities AS a", 1000, 2000));
  cal.Observe(join);
  obs::CalibratedCosts got = cal.snapshot();
  EXPECT_DOUBLE_EQ(got.hash_probe_row, 4.0);
  EXPECT_EQ(got.version, 1u);
  EXPECT_EQ(cal.effective_updates(), 1);

  // Absurdly fast nested loop (0.001us/row) clamps at default / 4.
  obs::ExplainNode nl = MakeNode("NestedLoopJoin", 1000, 2001);
  nl.children.push_back(MakeNode("SeqScan proteins AS p", 1000, 2000));
  cal.Observe(nl);
  got = cal.snapshot();
  EXPECT_DOUBLE_EQ(got.nested_loop_row, 0.6 / 4.0);
  EXPECT_EQ(got.version, 2u);

  // Defaults a calibrator never touches stay put.
  obs::CalibratedCosts defaults;
  EXPECT_EQ(got.seq_scan_row, defaults.seq_scan_row);
  EXPECT_EQ(got.cross_product_penalty, defaults.cross_product_penalty);
  EXPECT_EQ(got.subtree_selectivity, defaults.subtree_selectivity);
}

TEST(CostCalibratorTest, IndexJoinsCalibrateTheIndexRowCost) {
  obs::CostCalibrator cal;
  cal.Observe(MakeNode("SeqScan proteins AS p", 1000, 2000));  // 2us/row

  // The join's own time (its probes and fetches) is 600us over 100 rows:
  // 6us/row = 3 units, the per-fetched-row cost the planner prices the
  // index nested-loop join with.
  obs::ExplainNode join = MakeNode(
      "IndexNestedLoopJoin activities AS a ON p.accession = a.accession", 100,
      2600);
  join.children.push_back(MakeNode("SeqScan proteins AS p", 1000, 2000));
  cal.Observe(join);
  obs::CalibratedCosts got = cal.snapshot();
  EXPECT_DOUBLE_EQ(got.index_row, 3.0);
  EXPECT_EQ(got.version, 1u);
  EXPECT_EQ(cal.effective_updates(), 1);
  // The hash-join coefficients it is weighed against stay put.
  obs::CalibratedCosts defaults;
  EXPECT_EQ(got.hash_probe_row, defaults.hash_probe_row);
  EXPECT_EQ(got.hash_build_row, defaults.hash_build_row);

  // Absurdly slow joins clamp at 4x the 1.5 default.
  obs::ExplainNode slow = MakeNode(
      "IndexNestedLoopJoin ligands AS l ON a.ligand_id = l.ligand_id", 10,
      2000 + 100000);
  slow.children.push_back(MakeNode("SeqScan proteins AS p", 1000, 2000));
  cal.Observe(slow);
  EXPECT_DOUBLE_EQ(cal.snapshot().index_row, 1.5 * 4.0);
}

TEST(CostCalibratorTest, EncodedScansCalibrateTheDiscount) {
  obs::CostCalibrator cal;
  cal.Observe(MakeNode("SeqScan proteins AS p", 1000, 2000));
  // Encoded scan at half the plain per-row cost -> discount 0.5.
  cal.Observe(
      MakeNode("SeqScan proteins AS p [encoded: dict(family)]", 1000, 1000));
  EXPECT_DOUBLE_EQ(cal.snapshot().encoded_scan_discount, 0.5);
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
// Invariance: cache + calibration on vs off, across execution knobs.

TEST_F(AdaptiveTest, CorpusBitIdenticalWithCacheAndCalibrationArmed) {
  PlanCache cache;
  obs::CostCalibrator calibrator;
  Planner armed(dt_->catalog(), nullptr, &cache, &calibrator);
  Planner plain(dt_->catalog());
  for (const std::string& sql : Corpus()) {
    PlannerOptions ref_opts;
    auto reference = plain.Run(sql, ref_opts);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status();
    // Feed the calibrator real observations first (the analyze clock is the
    // tracer's, i.e. real time), so later plans run with moved coefficients.
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
  EXPECT_GT(calibrator.observations(), 0);
}

// ---------------------------------------------------------------------------
// Serving layer: concurrent submissions with every feature armed (TSan
// exercises PlanCache / CostCalibrator / AdaptiveController sharing), and
// Statusz surfacing.

TEST_F(AdaptiveTest, ConcurrentServingWithAllAdaptiveFeaturesArmed) {
  server::ServerOptions options;
  options.worker_threads = 4;
  options.scheduler.total_slots = 4;
  options.scheduler.interactive_slots = 4;
  options.admission.interactive_queue_capacity = 64;
  options.admission.analytic_queue_capacity = 64;
  options.slow_query_micros = 1;  // collect analyze -> calibrator observes
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

  // Statusz surfaces all three adaptive blocks.
  std::string statusz = server->Statusz();
  EXPECT_NE(statusz.find("\"plan_cache\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"cost_calibrator\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"adaptive\":{"), std::string::npos);
}

TEST_F(AdaptiveTest, DisablingPlanCacheAndCalibrationMatchesEnabled) {
  server::ServerOptions off;
  off.enable_plan_cache = false;
  off.enable_cost_calibration = false;
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
