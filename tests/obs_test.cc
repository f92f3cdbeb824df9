// Observability layer tests: metric registry semantics, span counters with
// simulated-clock attribution, and EXPLAIN / EXPLAIN ANALYZE through the
// full parse -> plan -> execute pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/slo_tracker.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_store.h"
#include "query/planner.h"
#include "util/clock.h"

namespace drugtree {
namespace {

using obs::MetricRegistry;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CounterRegisterSnapshotReset) {
  MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  ASSERT_NE(c, nullptr);
  // Same (name, labels) -> same pointer (the hot-path caching contract).
  EXPECT_EQ(c, registry.GetCounter("test.counter"));

  c->Add(5);
  c->Increment();
  EXPECT_EQ(c->Value(), 6);
  EXPECT_EQ(registry.Snapshot().Value("test.counter"), 6);

  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(registry.Snapshot().Value("test.counter"), 0);
}

TEST(MetricRegistryTest, LabelsDiscriminateInstances) {
  MetricRegistry registry;
  obs::Counter* a = registry.GetCounter("net.requests", {{"link", "3g"}});
  obs::Counter* b = registry.GetCounter("net.requests", {{"link", "wifi"}});
  EXPECT_NE(a, b);
  a->Add(2);
  b->Add(7);
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("net.requests{link=3g}"), 2);
  EXPECT_EQ(snapshot.Value("net.requests{link=wifi}"), 7);
}

TEST(MetricRegistryTest, GaugeAndHistogram) {
  MetricRegistry registry;
  obs::Gauge* g = registry.GetGauge("test.gauge");
  g->Set(42);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 40);

  obs::HistogramMetric* h = registry.GetHistogram("test.latency");
  h->Observe(1.0);
  h->Observe(3.0);
  auto snapshot = registry.Snapshot();
  const obs::MetricSnapshot* hist = snapshot.Find("test.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(hist->hist.count(), 2);
  EXPECT_DOUBLE_EQ(hist->hist.Mean(), 2.0);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndRenders) {
  MetricRegistry registry;
  registry.GetCounter("b.metric")->Add(1);
  registry.GetCounter("a.metric")->Add(2);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 2u);
  EXPECT_EQ(snapshot.metrics[0].name, "a.metric");
  EXPECT_EQ(snapshot.metrics[1].name, "b.metric");
  EXPECT_NE(snapshot.ToText().find("a.metric"), std::string::npos);
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"name\":\"a.metric\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":2"), std::string::npos);
}

TEST(MetricRegistryTest, CounterIsThreadSafe) {
  MetricRegistry registry;
  obs::Counter* c = registry.GetCounter("test.parallel");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), kThreads * kAddsPerThread);
}

// Audit result (gauge Set vs concurrent snapshot): Gauge is one relaxed
// std::atomic<int64_t>, so a registry Snapshot() racing Set()/Add() reads a
// whole former value — no torn read is possible, and no update is lost
// because Set is a plain store and Add a fetch_add. This hammer pins that:
// under TSan any regression to a non-atomic value_ (or an unlocked map walk
// in Snapshot) reports a data race, and the post-join assertions catch lost
// updates.
TEST(MetricRegistryTest, GaugeSetRacesSnapshotWithoutTearing) {
  MetricRegistry registry;
  obs::Gauge* g = registry.GetGauge("test.gauge_race");
  obs::Gauge* adder = registry.GetGauge("test.gauge_adder");
  constexpr int kWriters = 4;
  constexpr int kIters = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Values distinguishable per writer: a torn read would surface a
        // value no single writer ever stored.
        g->Set(static_cast<int64_t>(t + 1) * 1'000'000'007);
        adder->Add(1);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::RegistrySnapshot snap = registry.Snapshot();
      int64_t v = snap.Value("test.gauge_race");
      // Every observed value is exactly one writer's store (or the initial
      // zero), never a mix of two writers' bit patterns.
      bool whole = v == 0;
      for (int t = 0; t < kWriters; ++t) {
        whole = whole || v == static_cast<int64_t>(t + 1) * 1'000'000'007;
      }
      EXPECT_TRUE(whole) << "torn gauge read: " << v;
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(kWriters * kIters, adder->Value());  // no lost Add
  g->Set(42);
  EXPECT_EQ(42, g->Value());  // last write wins after quiescence
}

// ---------------------------------------------------------------------------
// Span counters
// ---------------------------------------------------------------------------

TEST(TracerTest, NestedSiteSpansEachAddTheirFullDuration) {
  // DT_SPAN's path: every span adds its whole duration and one count to its
  // site's counters, stamped off the tracer clock, so an enclosing span's
  // total includes the spans nested in it.
  util::SimulatedClock clock;
  Tracer* tracer = Tracer::Default();
  tracer->set_clock(&clock);
  MetricRegistry::Default()->ResetAll();

  static const obs::SpanSite outer_site("test.outer");
  static const obs::SpanSite inner_site("test.inner");
  for (int i = 0; i < 4; ++i) {
    obs::ScopedSpan outer(tracer, outer_site);
    clock.AdvanceMicros(5);
    {
      obs::ScopedSpan inner(tracer, inner_site);
      clock.AdvanceMicros(15);
    }
    clock.AdvanceMicros(5);
  }
  tracer->set_clock(nullptr);

  auto snapshot = MetricRegistry::Default()->Snapshot();
  EXPECT_EQ(snapshot.Value("span.test.outer.count"), 4);
  EXPECT_EQ(snapshot.Value("span.test.outer.total_micros"), 100);
  EXPECT_EQ(snapshot.Value("span.test.inner.count"), 4);
  EXPECT_EQ(snapshot.Value("span.test.inner.total_micros"), 60);
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

using storage::IndexKind;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"family", ValueType::kString, false},
                                   {"score", ValueType::kDouble, false}});
    proteins_ = std::make_unique<Table>("proteins", *pschema);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(proteins_
                      ->Insert({Value::String("P" + std::to_string(i)),
                                Value::String(i % 2 ? "famA" : "famB"),
                                Value::Double(i * 10.0)})
                      .ok());
    }
    auto aschema = Schema::Create({{"acc", ValueType::kString, false},
                                   {"aff", ValueType::kDouble, false}});
    activities_ = std::make_unique<Table>("activities", *aschema);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(activities_
                      ->Insert({Value::String("P" + std::to_string(i)),
                                Value::Double(i * 5.0)})
                      .ok());
    }
    ASSERT_TRUE(proteins_->Analyze().ok());
    ASSERT_TRUE(activities_->Analyze().ok());
    ASSERT_TRUE(catalog_.Register(proteins_.get()).ok());
    ASSERT_TRUE(catalog_.Register(activities_.get()).ok());
    planner_ = std::make_unique<query::Planner>(&catalog_);
  }

  std::unique_ptr<Table> proteins_, activities_;
  query::Catalog catalog_;
  std::unique_ptr<query::Planner> planner_;
};

TEST_F(ExplainAnalyzeTest, ParseStatementModes) {
  auto plain = query::ParseStatement("SELECT acc FROM proteins");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->explain, query::ExplainMode::kNone);

  auto plan = query::ParseStatement("EXPLAIN SELECT acc FROM proteins");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->explain, query::ExplainMode::kPlan);

  auto analyze =
      query::ParseStatement("explain analyze SELECT acc FROM proteins");
  ASSERT_TRUE(analyze.ok());
  EXPECT_EQ(analyze->explain, query::ExplainMode::kAnalyze);

  EXPECT_FALSE(query::ParseStatement("EXPLAIN ANALYZE").ok());
}

TEST_F(ExplainAnalyzeTest, ExplainPlanSkipsExecution) {
  auto outcome = planner_->Run("EXPLAIN SELECT acc FROM proteins",
                               query::PlannerOptions::Optimized());
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->physical_plan.empty());
  EXPECT_TRUE(outcome->analyzed_plan.empty());
  EXPECT_TRUE(outcome->result.rows.empty());  // not executed
}

TEST_F(ExplainAnalyzeTest, AnalyzeRowCountsMatchResult) {
  const char* sql =
      "EXPLAIN ANALYZE SELECT p.acc, a.aff FROM proteins p "
      "JOIN activities a ON p.acc = a.acc WHERE a.aff < 50.0";
  auto outcome = planner_->Run(sql, query::PlannerOptions::Optimized());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 10u);
  ASSERT_FALSE(outcome->analyzed_plan.empty());
  // The root operator's rows_out must equal the materialized row count.
  char expected[64];
  std::snprintf(expected, sizeof(expected), "rows=%zu",
                outcome->result.rows.size());
  EXPECT_NE(outcome->analyzed_plan.find(expected), std::string::npos)
      << outcome->analyzed_plan;
  EXPECT_NE(outcome->analyzed_plan.find("time="), std::string::npos);
  EXPECT_NE(outcome->analyzed_plan.find("next="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeTreeStructureMatchesPlan) {
  query::ExecStats stats;
  auto physical = planner_->Plan("SELECT acc FROM proteins WHERE score > 95.0",
                                 query::PlannerOptions::Optimized(), &stats);
  ASSERT_TRUE(physical.ok());
  util::SimulatedClock clock;
  (*physical)->EnableAnalyze(&clock);
  auto result = query::ExecutePlan(physical->get());
  ASSERT_TRUE(result.ok());
  obs::ExplainNode root = (*physical)->AnalyzeTree();
  EXPECT_EQ(root.rows_out, static_cast<int64_t>(result->rows.size()));
  // Next() is called once per row plus the exhausted call.
  EXPECT_EQ(root.next_calls, root.rows_out + 1);
  std::string rendered = obs::RenderExplainTree(root);
  EXPECT_NE(rendered.find("rows="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, AnalyzeBypassesResultCache) {
  query::ResultCache cache(1 << 20);
  query::Planner planner(&catalog_, &cache);
  query::PlannerOptions options = query::PlannerOptions::Optimized();
  options.use_result_cache = true;
  const char* sql = "EXPLAIN ANALYZE SELECT acc FROM proteins";
  auto first = planner.Run(sql, options);
  ASSERT_TRUE(first.ok());
  auto second = planner.Run(sql, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_result_cache);
  EXPECT_FALSE(second->analyzed_plan.empty());
}

TEST(MetricRegistryTest, HistogramValueAtPercentile) {
  MetricRegistry registry;
  obs::HistogramMetric* h = registry.GetHistogram("test.latency");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  EXPECT_GT(h->ValueAtPercentile(99), h->ValueAtPercentile(50));
  double p50 = h->ValueAtPercentile(50);
  EXPECT_GE(p50, 40.0);
  EXPECT_LE(p50, 60.0);
  // Matches the snapshot-derived percentile exactly (same bucket math).
  EXPECT_DOUBLE_EQ(p50, h->Snapshot().Percentile(50));
}

// ---------------------------------------------------------------------------
// Per-query trace context + trace store
// ---------------------------------------------------------------------------

TEST(TraceContextTest, PhaseTimelineIsExactOnVirtualClock) {
  util::SimulatedClock clock;
  obs::TraceContext trace(7, &clock);
  trace.set_query_class("interactive");
  trace.set_lane("slot-0");
  trace.AddPhaseInterval(obs::TracePhase::kAdmit, 0, 100);
  clock.AdvanceMicros(100);
  trace.BeginPhase(obs::TracePhase::kPlan);
  clock.AdvanceMicros(250);
  trace.EndPhase(obs::TracePhase::kPlan);
  trace.BeginPhase(obs::TracePhase::kExecute);
  clock.AdvanceMicros(1'000);
  trace.AddBlockedMicros(obs::TracePhase::kFetchBlocked, 400);
  trace.EndPhase(obs::TracePhase::kExecute);
  EXPECT_EQ(trace.PhaseMicros(obs::TracePhase::kPlan), 250);

  obs::TraceRecord record = trace.Finish("ok", true);
  EXPECT_EQ(record.trace_id, 7u);
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.TotalMicros(), 1'350);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kAdmit), 100);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kPlan), 250);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kExecute), 1'000);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kFetchBlocked), 400);
  // Intervals come back in timeline order regardless of close order (the
  // execute interval closed after the nested fetch_blocked one).
  ASSERT_EQ(record.intervals.size(), 4u);
  EXPECT_EQ(record.intervals[0].phase, obs::TracePhase::kAdmit);
  EXPECT_EQ(record.intervals[2].phase, obs::TracePhase::kExecute);
  for (size_t i = 1; i < record.intervals.size(); ++i) {
    EXPECT_GE(record.intervals[i].start_micros,
              record.intervals[i - 1].start_micros);
  }
  std::string timeline = record.TimelineString();
  EXPECT_NE(timeline.find("plan"), std::string::npos);
  EXPECT_NE(timeline.find("fetch_blocked"), std::string::npos);
}

TEST(TraceContextTest, FinishClosesOpenPhasesAndUnmatchedEndIsIgnored) {
  util::SimulatedClock clock;
  obs::TraceContext trace(1, &clock);
  trace.EndPhase(obs::TracePhase::kPlan);  // no matching open: ignored
  trace.BeginPhase(obs::TracePhase::kExecute);
  clock.AdvanceMicros(500);
  obs::TraceRecord record = trace.Finish("cancelled", false);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kPlan), 0);
  EXPECT_EQ(record.PhaseMicros(obs::TracePhase::kExecute), 500);
  EXPECT_FALSE(record.ok);
  EXPECT_EQ(record.status, "cancelled");
}

TEST(TraceContextTest, ScopedInstallNestsAndPhaseScopeIsInertUntraced) {
  EXPECT_EQ(obs::TraceContext::Current(), nullptr);
  { obs::TracePhaseScope untraced(obs::TracePhase::kExecute); }  // no-op
  util::SimulatedClock clock;
  obs::TraceContext outer(1, &clock);
  obs::TraceContext inner(2, &clock);
  {
    obs::ScopedTraceContext install_outer(&outer);
    EXPECT_EQ(obs::TraceContext::Current(), &outer);
    {
      obs::ScopedTraceContext install_inner(&inner);
      EXPECT_EQ(obs::TraceContext::Current(), &inner);
      obs::TracePhaseScope phase(obs::TracePhase::kPlan);
      clock.AdvanceMicros(40);
    }
    EXPECT_EQ(obs::TraceContext::Current(), &outer);
  }
  EXPECT_EQ(obs::TraceContext::Current(), nullptr);
  EXPECT_EQ(inner.PhaseMicros(obs::TracePhase::kPlan), 40);
  EXPECT_EQ(outer.PhaseMicros(obs::TracePhase::kPlan), 0);
}

TEST(TraceContextTest, FetchEventsAndCountersSurviveIntoRecord) {
  util::SimulatedClock clock;
  obs::TraceContext trace(3, &clock);
  trace.AddFetchEvent(/*channel=*/1, /*start=*/10, /*end=*/250,
                      /*bytes=*/4096);
  trace.BumpCounter("result_cache_hit");
  trace.BumpCounter("result_cache_hit");
  obs::TraceRecord record = trace.Finish("ok", true);
  ASSERT_EQ(record.fetches.size(), 1u);
  EXPECT_EQ(record.fetches[0].channel, 1);
  EXPECT_EQ(record.fetches[0].bytes, 4096u);
  EXPECT_EQ(record.counters.at("result_cache_hit"), 2);
}

obs::TraceRecord MakeTraceRecord(uint64_t id, const std::string& cls,
                                 int64_t begin_micros, int64_t total_micros) {
  util::SimulatedClock clock;
  clock.AdvanceMicros(begin_micros);
  obs::TraceContext trace(id, &clock);
  trace.set_query_class(cls);
  trace.BeginPhase(obs::TracePhase::kExecute);
  clock.AdvanceMicros(total_micros);
  trace.EndPhase(obs::TracePhase::kExecute);
  return trace.Finish("ok", true);
}

TEST(TraceStoreTest, RingOverwritesBeyondCapacityAndCountsDrops) {
  obs::TraceStore store(/*capacity=*/16);
  for (uint64_t id = 0; id < 40; ++id) {
    store.Record(MakeTraceRecord(id, "interactive",
                                 /*begin_micros=*/static_cast<int64_t>(id),
                                 /*total_micros=*/10));
  }
  EXPECT_EQ(store.total_recorded(), 40);
  EXPECT_EQ(store.dropped(), 24);
  EXPECT_EQ(store.Snapshot().size(), 16u);
  store.Clear();
  EXPECT_EQ(store.total_recorded(), 0);
  EXPECT_TRUE(store.Snapshot().empty());
}

TEST(TraceStoreTest, SlowLogCapturesOffendersInTimelineOrder) {
  obs::TraceStore store(/*capacity=*/64, /*slow_threshold_micros=*/1'000);
  store.Record(MakeTraceRecord(1, "interactive", 500, 2'000));  // slow
  store.Record(MakeTraceRecord(2, "interactive", 0, 5'000));    // slow, first
  store.Record(MakeTraceRecord(3, "interactive", 100, 10));     // fast
  EXPECT_EQ(store.slow_count(), 2);
  std::vector<obs::TraceRecord> slow = store.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  // Sorted by begin time, not filing order.
  EXPECT_EQ(slow[0].trace_id, 2u);
  EXPECT_EQ(slow[1].trace_id, 1u);
  EXPECT_TRUE(slow[0].slow);
  EXPECT_EQ(store.Snapshot().size(), 3u);  // the fast one is still retained
}

TEST(TraceStoreTest, ConcurrentRecordingIsSafeAndLossAccounted) {
  obs::TraceStore store(/*capacity=*/128);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t id = static_cast<uint64_t>(t) * 1'000 +
                      static_cast<uint64_t>(i);
        store.Record(MakeTraceRecord(id, "interactive", i, 10));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(store.Snapshot().size(), 128u);
  EXPECT_EQ(store.dropped(), kThreads * kPerThread - 128);
}

TEST(ChromeTraceExportTest, EmitsMetadataAndCompleteEvents) {
  util::SimulatedClock clock;
  obs::TraceContext trace(9, &clock);
  trace.set_query_class("interactive");
  trace.set_lane("slot-1");
  trace.set_sql("SELECT 1");
  trace.BeginPhase(obs::TracePhase::kExecute);
  clock.AdvanceMicros(100);
  trace.EndPhase(obs::TracePhase::kExecute);
  trace.AddFetchEvent(/*channel=*/0, /*start=*/20, /*end=*/80, /*bytes=*/512);
  std::vector<obs::TraceRecord> records;
  records.push_back(trace.Finish("ok", true));

  std::string json = obs::ExportChromeTrace(records);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // lane metadata
  EXPECT_NE(json.find("\"name\":\"slot-1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net-ch0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete events
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":100"), std::string::npos);
  // Cheap well-formedness check: balanced braces, closed at the end.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '}');
}

TEST(TailAttributionTest, SharesSumToOneWithExecuteNetOfFetch) {
  // One record: 60% queue wait, 40% execute of which half was fetch-blocked.
  util::SimulatedClock clock;
  obs::TraceContext trace(1, &clock);
  trace.set_query_class("interactive");
  trace.AddPhaseInterval(obs::TracePhase::kQueueWait, 0, 600);
  trace.AddPhaseInterval(obs::TracePhase::kExecute, 600, 1'000);
  trace.AddPhaseInterval(obs::TracePhase::kFetchBlocked, 700, 900);
  clock.AdvanceMicros(1'000);
  std::vector<obs::TraceRecord> records;
  records.push_back(trace.Finish("ok", true));

  std::vector<obs::TailAttribution> attr =
      obs::ComputeTailAttribution(records);
  ASSERT_EQ(attr.size(), 1u);
  EXPECT_EQ(attr[0].query_class, "interactive");
  EXPECT_EQ(attr[0].count, 1);
  EXPECT_EQ(attr[0].tail_count, 1);
  EXPECT_EQ(attr[0].p99_micros, 1'000);
  EXPECT_DOUBLE_EQ(
      attr[0].share[static_cast<size_t>(obs::TracePhase::kQueueWait)], 0.6);
  // Execute is reported net of the fetch-blocked time nested inside it.
  EXPECT_DOUBLE_EQ(
      attr[0].share[static_cast<size_t>(obs::TracePhase::kExecute)], 0.2);
  EXPECT_DOUBLE_EQ(
      attr[0].share[static_cast<size_t>(obs::TracePhase::kFetchBlocked)], 0.2);
  double sum = attr[0].other_share;
  for (double s : attr[0].share) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NE(attr[0].ToString().find("queue_wait"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Memory tracker hierarchy
// ---------------------------------------------------------------------------

TEST(MemoryTrackerTest, ChargePropagatesUpAndReleaseUnwinds) {
  obs::MemoryTracker root("server");
  obs::MemoryTracker* cls = root.GetOrCreateChild("interactive");
  obs::MemoryTracker* session = cls->GetOrCreateChild("session-1");

  EXPECT_TRUE(session->TryCharge(1000).ok());
  EXPECT_EQ(session->used(), 1000);
  EXPECT_EQ(cls->used(), 1000);
  EXPECT_EQ(root.used(), 1000);

  session->Release(400);
  EXPECT_EQ(session->used(), 600);
  EXPECT_EQ(root.used(), 600);
  session->Release(600);
  EXPECT_EQ(root.used(), 0);
  // Peak watermarks survive the release.
  EXPECT_EQ(session->peak(), 1000);
  EXPECT_EQ(root.peak(), 1000);
}

TEST(MemoryTrackerTest, HardLimitFailsChargeAndRollsBackWholeChain) {
  obs::MemoryTracker root("server");
  obs::MemoryTracker* child =
      root.GetOrCreateChild("limited", /*soft_limit_bytes=*/0,
                            /*hard_limit_bytes=*/1000);
  EXPECT_TRUE(child->TryCharge(800).ok());
  util::Status s = child->TryCharge(300);
  EXPECT_TRUE(s.IsResourceExhausted());
  // The failed charge must leave every level exactly where it was.
  EXPECT_EQ(child->used(), 800);
  EXPECT_EQ(root.used(), 800);
  // Peak reflects only successful charges.
  EXPECT_EQ(child->peak(), 800);
}

TEST(MemoryTrackerTest, HardLimitOnAncestorRollsBackDescendantCharge) {
  obs::MemoryTracker root("server", nullptr, /*soft_limit_bytes=*/0,
                          /*hard_limit_bytes=*/1000);
  obs::MemoryTracker* child = root.GetOrCreateChild("query");
  EXPECT_TRUE(child->TryCharge(900).ok());
  EXPECT_TRUE(child->TryCharge(200).IsResourceExhausted());
  EXPECT_EQ(child->used(), 900);
  EXPECT_EQ(root.used(), 900);
}

TEST(MemoryTrackerTest, SoftLimitObservableButNeverBlocks) {
  obs::MemoryTracker t("server", nullptr, /*soft_limit_bytes=*/100);
  EXPECT_FALSE(t.OverSoftLimit());
  EXPECT_TRUE(t.TryCharge(100).ok());
  EXPECT_TRUE(t.OverSoftLimit());
  EXPECT_TRUE(t.TryCharge(100).ok());  // soft limit sheds, it doesn't fail
  t.Release(200);
  EXPECT_FALSE(t.OverSoftLimit());
}

TEST(MemoryTrackerTest, ScopedChargeAndDestructorReleaseBalanceParent) {
  obs::MemoryTracker root("server");
  {
    obs::ScopedMemoryCharge charge(&root, 5000);
    EXPECT_EQ(root.used(), 5000);
  }
  EXPECT_EQ(root.used(), 0);
  {
    // A child destroyed with outstanding usage returns it to the parent.
    obs::MemoryTracker local("query", &root);
    EXPECT_TRUE(local.TryCharge(700).ok());
    EXPECT_EQ(root.used(), 700);
  }
  EXPECT_EQ(root.used(), 0);
  EXPECT_EQ(root.peak(), 5000);
}

TEST(MemoryTrackerTest, GetOrCreateChildDedupesAndToJsonNestsChildren) {
  obs::MemoryTracker root("server");
  obs::MemoryTracker* a = root.GetOrCreateChild("interactive");
  EXPECT_EQ(a, root.GetOrCreateChild("interactive"));
  obs::MemoryTracker* b = root.GetOrCreateChild("analytic");
  ASSERT_TRUE(b->TryCharge(42).ok());
  std::string json = root.ToJson();
  EXPECT_NE(json.find("\"name\":\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"interactive\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"analytic\""), std::string::npos);
  EXPECT_NE(json.find("\"used\":42"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO tracker
// ---------------------------------------------------------------------------

TEST(SloTrackerTest, BurnRateAndComplianceMatchRecordedOutcomes) {
  util::SimulatedClock clock;
  clock.AdvanceMicros(1'000'000);
  obs::SloOptions opts;
  opts.target_latency_micros = 10'000;
  opts.objective = 0.9;  // error budget = 10%
  opts.window_micros = 60'000'000;
  obs::SloTracker slo("test-class", opts, &clock);

  // 8 good, 1 slow-but-ok (bad), 1 failed (bad) -> 20% bad, burn = 2.0.
  for (int i = 0; i < 8; ++i) slo.Record(5'000, /*ok=*/true);
  slo.Record(50'000, /*ok=*/true);
  slo.Record(5'000, /*ok=*/false);

  obs::SloTracker::Snapshot snap = slo.GetSnapshot();
  EXPECT_EQ(snap.window_total, 10);
  EXPECT_EQ(snap.window_good, 8);
  EXPECT_EQ(snap.window_bad, 2);
  EXPECT_DOUBLE_EQ(snap.compliance, 0.8);
  EXPECT_NEAR(snap.burn_rate, 2.0, 1e-9);
  EXPECT_EQ(snap.total, 10);

  std::string json = slo.ToJson();
  EXPECT_NE(json.find("\"name\":\"test-class\""), std::string::npos);
  EXPECT_NE(json.find("\"window_total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate\""), std::string::npos);
}

TEST(SloTrackerTest, WindowExpiresOldBucketsCumulativeDoesNot) {
  util::SimulatedClock clock;
  obs::SloOptions opts;
  opts.target_latency_micros = 10'000;
  opts.objective = 0.99;
  opts.window_micros = 10'000'000;  // 10s window,
  opts.num_buckets = 10;            // 1s buckets
  obs::SloTracker slo("test-window", opts, &clock);

  slo.Record(5'000, /*ok=*/false);  // bad, at t=0
  EXPECT_EQ(slo.GetSnapshot().window_bad, 1);

  // Advance past the whole window; the bad outcome ages out of the rolling
  // view but stays in the cumulative totals.
  clock.AdvanceMicros(20'000'000);
  obs::SloTracker::Snapshot snap = slo.GetSnapshot();
  EXPECT_EQ(snap.window_total, 0);
  EXPECT_EQ(snap.window_bad, 0);
  EXPECT_DOUBLE_EQ(snap.compliance, 1.0);  // idle window = compliant
  EXPECT_DOUBLE_EQ(snap.burn_rate, 0.0);
  EXPECT_EQ(snap.total, 1);
  EXPECT_EQ(snap.bad, 1);
}

// ---------------------------------------------------------------------------
// TraceStore ring wraparound (regression pin)
// ---------------------------------------------------------------------------

TEST(TraceStoreTest, WraparoundKeepsNewestPerShardSortedWithDropAccounting) {
  // capacity 16 over 8 shards = 2 records per shard. All trace ids are
  // multiples of 8, so every record lands in shard 0 and the third record
  // starts overwriting. The ring must retain the NEWEST records and
  // Snapshot() must come back begin-time-sorted after wraparound.
  obs::TraceStore store(/*capacity=*/16);
  const uint64_t ids[] = {8, 16, 24, 32, 40};
  int64_t begin = 100;
  for (uint64_t id : ids) {
    store.Record(MakeTraceRecord(id, "interactive", begin, /*total=*/10));
    begin += 100;
  }
  EXPECT_EQ(store.total_recorded(), 5);
  EXPECT_EQ(store.dropped(), 3);  // 5 filed into a 2-slot shard
  std::vector<obs::TraceRecord> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Oldest-first eviction: survivors are the last two records, in begin
  // order (id 32 began at 400, id 40 at 500).
  EXPECT_EQ(snap[0].trace_id, 32u);
  EXPECT_EQ(snap[1].trace_id, 40u);
  EXPECT_LT(snap[0].begin_micros, snap[1].begin_micros);
}

TEST(TraceStoreTest, CeilingCapacitySplitNeverUndersizesStore) {
  // capacity 12 over 8 shards must hold at least 12 records (2 per shard),
  // not the 8 a truncating split would keep.
  obs::TraceStore store(/*capacity=*/12);
  for (uint64_t id = 0; id < 12; ++id) {
    store.Record(MakeTraceRecord(id, "interactive",
                                 static_cast<int64_t>(id), /*total=*/10));
  }
  EXPECT_EQ(store.dropped(), 0);
  EXPECT_EQ(store.Snapshot().size(), 12u);
}

// ---------------------------------------------------------------------------
// HistogramMetric percentile edge cases
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, HistogramPercentileEdgeCases) {
  MetricRegistry registry;
  obs::HistogramMetric* empty = registry.GetHistogram("test.empty");
  EXPECT_DOUBLE_EQ(empty->ValueAtPercentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty->ValueAtPercentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty->ValueAtPercentile(100), 0.0);

  // A single observation: every percentile is that observation, exactly
  // (p0 -> min, p100 -> max, no bucket-interpolation artifacts).
  obs::HistogramMetric* one = registry.GetHistogram("test.single");
  one->Observe(42.0);
  EXPECT_DOUBLE_EQ(one->ValueAtPercentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one->ValueAtPercentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one->ValueAtPercentile(100), 42.0);

  // All mass in one bucket: p0/p100 pin to the true min/max even though
  // the bucket spans a wider range.
  obs::HistogramMetric* same = registry.GetHistogram("test.samebucket");
  same->Observe(100.0);
  same->Observe(100.5);
  same->Observe(101.0);
  EXPECT_DOUBLE_EQ(same->ValueAtPercentile(0), 100.0);
  EXPECT_DOUBLE_EQ(same->ValueAtPercentile(100), 101.0);
  double p50 = same->ValueAtPercentile(50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 126.0);  // within the 1.25x bucket above 100

  // Out-of-range p clamps to the data extremes.
  EXPECT_DOUBLE_EQ(same->ValueAtPercentile(-5), 100.0);
  EXPECT_DOUBLE_EQ(same->ValueAtPercentile(250), 101.0);
}

}  // namespace
}  // namespace drugtree
