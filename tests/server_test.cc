// Serving-layer tests: admission control sheds at capacity, the weighted
// fair scheduler interleaves classes deterministically, expired deadlines
// cancel execution with kCancelled, and an unloaded server returns results
// identical to the direct planner path. Everything runs on a virtual clock
// so queue waits and deadlines are deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/drugtree.h"
#include "obs/resource_tracker.h"
#include "obs/slo_tracker.h"
#include "obs/trace_context.h"
#include "obs/trace_store.h"
#include "server/server.h"
#include "util/clock.h"

namespace drugtree {
namespace server {
namespace {

class ServerTest : public ::testing::Test {
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

  static QueryRequest Interactive(uint64_t session, std::string sql) {
    QueryRequest r;
    r.session_id = session;
    r.sql = std::move(sql);
    r.query_class = QueryClass::kInteractive;
    return r;
  }

  static QueryRequest Analytic(uint64_t session, std::string sql) {
    QueryRequest r = Interactive(session, std::move(sql));
    r.query_class = QueryClass::kAnalytic;
    return r;
  }

  static std::string CheapSql() {
    return dt_->OverlayQuerySql(dt_->tree().root());
  }

  static util::SimulatedClock* clock_;
  static core::DrugTree* dt_;
};

util::SimulatedClock* ServerTest::clock_ = nullptr;
core::DrugTree* ServerTest::dt_ = nullptr;

TEST_F(ServerTest, UnloadedServerMatchesDirectExecutor) {
  auto server = dt_->MakeServer();
  const std::string queries[] = {
      CheapSql(),
      "SELECT accession, family FROM proteins ORDER BY accession",
      "SELECT COUNT(*), AVG(a.affinity_nm) FROM activities a",
      "SELECT p.accession, a.affinity_nm FROM proteins p, activities a "
      "WHERE p.accession = a.accession AND a.affinity_nm < 50.0 "
      "ORDER BY a.affinity_nm LIMIT 20",
  };
  for (const std::string& sql : queries) {
    auto direct = dt_->Query(sql);
    ASSERT_TRUE(direct.ok()) << sql << ": " << direct.status();
    auto served = server->Submit(Interactive(1, sql));
    ASSERT_TRUE(served.ok()) << sql << ": " << served.status();
    EXPECT_EQ(direct->result.columns, served->result.columns);
    ASSERT_EQ(direct->result.rows.size(), served->result.rows.size()) << sql;
    for (size_t i = 0; i < direct->result.rows.size(); ++i) {
      EXPECT_EQ(direct->result.rows[i], served->result.rows[i])
          << sql << " row " << i;
    }
  }
  auto c = server->counters(QueryClass::kInteractive);
  EXPECT_EQ(c.completed, 4);
  EXPECT_EQ(c.shed, 0);
  EXPECT_EQ(c.cancelled, 0);
}

TEST_F(ServerTest, AdmissionShedsAtCapacityWithResourceExhausted) {
  ServerOptions options;
  options.admission.interactive_queue_capacity = 4;
  options.admission.analytic_queue_capacity = 2;
  auto server = dt_->MakeServer(options);
  server->Pause();  // stage a backlog: nothing dispatches yet

  std::vector<ResponseHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(server->SubmitAsync(Interactive(1, CheapSql())));
  }
  // First 4 queued; 5th and 6th shed immediately.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(handles[i].Done()) << i;
  for (int i = 4; i < 6; ++i) {
    ASSERT_TRUE(handles[i].Done()) << i;
    auto r = handles[i].Wait();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  }
  // The analytic queue is independent: still admits.
  auto analytic = server->SubmitAsync(Analytic(2, CheapSql()));
  EXPECT_FALSE(analytic.Done());

  auto shed = server->counters(QueryClass::kInteractive);
  EXPECT_EQ(shed.admitted, 4);
  EXPECT_EQ(shed.shed, 2);

  server->Resume();
  server->Drain();
  for (int i = 0; i < 4; ++i) {
    auto r = handles[i].Wait();
    EXPECT_TRUE(r.ok()) << r.status();
  }
  EXPECT_TRUE(analytic.Wait().ok());
  auto done = server->counters(QueryClass::kInteractive);
  EXPECT_EQ(done.completed, 4);
}

TEST_F(ServerTest, WeightedFairSchedulerInterleavesClasses) {
  ServerOptions options;
  options.worker_threads = 1;
  options.scheduler.total_slots = 1;
  options.scheduler.interactive_slots = 1;
  options.scheduler.analytic_slots = 1;
  options.scheduler.interactive_weight = 4;
  options.scheduler.analytic_weight = 1;
  auto server = dt_->MakeServer(options);
  server->EnableDispatchLog();
  server->Pause();
  for (int i = 0; i < 12; ++i) {
    server->SubmitAsync(Interactive(1, CheapSql()));
  }
  for (int i = 0; i < 3; ++i) {
    server->SubmitAsync(Analytic(2, CheapSql()));
  }
  server->Resume();
  server->Drain();

  // Stride scheduling at 4:1 with a single slot: analytic runs every fifth
  // dispatch — steady progress, no starvation, no bursts.
  std::vector<uint64_t> log = server->TakeDispatchLog();
  std::vector<uint64_t> expected = {1, 2, 1, 1, 1, 1, 2, 1,
                                    1, 1, 1, 2, 1, 1, 1};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(server->counters(QueryClass::kInteractive).completed, 12);
  EXPECT_EQ(server->counters(QueryClass::kAnalytic).completed, 3);
}

TEST_F(ServerTest, DispatchOrderIsDeterministicUnderVirtualClock) {
  auto run_once = [&]() {
    ServerOptions options;
    options.worker_threads = 1;
    options.scheduler.total_slots = 1;
    auto server = dt_->MakeServer(options);
    server->EnableDispatchLog();
    server->Pause();
    for (int i = 0; i < 5; ++i) {
      QueryRequest r = Interactive(10 + static_cast<uint64_t>(i), CheapSql());
      r.priority = i % 2;  // priorities reorder within the class
      server->SubmitAsync(std::move(r));
      server->SubmitAsync(Analytic(100 + static_cast<uint64_t>(i), CheapSql()));
    }
    server->Resume();
    server->Drain();
    return server->TakeDispatchLog();
  };
  std::vector<uint64_t> first = run_once();
  std::vector<uint64_t> second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 10u);
}

TEST_F(ServerTest, ExpiredDeadlineIsCancelledWithoutExecuting) {
  auto server = dt_->MakeServer();
  server->Pause();
  QueryRequest r = Interactive(1, CheapSql());
  r.deadline_micros = clock_->NowMicros() + 1'000;
  ResponseHandle handle = server->SubmitAsync(std::move(r));
  clock_->AdvanceMicros(10'000);  // deadline passes while queued
  server->Resume();
  auto result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  auto c = server->counters(QueryClass::kInteractive);
  EXPECT_EQ(c.cancelled, 1);
  EXPECT_EQ(c.deadline_missed, 1);
  EXPECT_EQ(c.completed, 0);
}

TEST_F(ServerTest, DeadlineExpiryCancelsMidScan) {
  auto server = dt_->MakeServer();
  // A cubic nested-loop self-join: ~180^3 predicate evaluations, far past
  // many kCancelCheckRows checkpoints. The deadline expires (virtual clock
  // advance below) long before the scan can finish.
  QueryRequest r = Analytic(
      7,
      "SELECT COUNT(*) FROM activities a1, activities a2, activities a3 "
      "WHERE a1.affinity_nm < a2.affinity_nm "
      "AND a2.affinity_nm < a3.affinity_nm");
  r.deadline_micros = clock_->NowMicros() + 1'000;
  ResponseHandle handle = server->SubmitAsync(std::move(r));
  clock_->AdvanceMicros(1'000'000);
  auto result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  auto c = server->counters(QueryClass::kAnalytic);
  EXPECT_EQ(c.cancelled, 1);
  EXPECT_EQ(c.deadline_missed, 1);
}

TEST_F(ServerTest, ExplicitCancelStopsQueuedRequest) {
  auto server = dt_->MakeServer();
  server->Pause();
  ResponseHandle handle = server->SubmitAsync(Interactive(1, CheapSql()));
  handle.Cancel();
  server->Resume();
  auto result = handle.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  // Cancelled before execution: no deadline involved, so not a miss.
  EXPECT_EQ(server->counters(QueryClass::kInteractive).deadline_missed, 0);
}

TEST_F(ServerTest, WaitConsumesResultOnce) {
  auto server = dt_->MakeServer();
  ResponseHandle handle = server->SubmitAsync(Interactive(1, CheapSql()));
  ResponseHandle copy = handle;
  EXPECT_TRUE(handle.Wait().ok());
  auto again = copy.Wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kInternal);
}

TEST_F(ServerTest, ServedSessionDegradesGracefullyWhenShed) {
  // A served mobile session against a zero-capacity server: every overlay
  // query is shed, the session still completes, and the report counts the
  // misses.
  ServerOptions options;
  options.admission.interactive_queue_capacity = 0;
  auto server = dt_->MakeServer(options);
  mobile::SessionOptions sopts;
  auto session = dt_->MakeSession(mobile::DeviceProfile::TabletWifi(), sopts,
                                  query::PlannerOptions::Optimized(),
                                  server.get(), /*session_id=*/5);
  mobile::TraceParams tp;
  tp.num_actions = 20;
  tp.p_query = 0.6;  // make sure the trace contains overlay actions
  auto trace = dt_->MakeTrace(tp, 31);
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->overlay_queries, 0u);
  EXPECT_EQ(report->overlay_shed, report->overlay_queries);
  EXPECT_EQ(report->overlay_deadline_missed, 0u);
}

// ---------------------------------------------------------------------------
// Per-query request tracing
// ---------------------------------------------------------------------------

TEST_F(ServerTest, TraceTimelineIsDeterministicOnVirtualClock) {
  ServerOptions options;
  options.worker_threads = 1;
  options.scheduler.total_slots = 1;
  auto server = dt_->MakeServer(options);
  server->Pause();
  int64_t submit = clock_->NowMicros();
  ResponseHandle handle = server->SubmitAsync(Interactive(1, CheapSql()));
  clock_->AdvanceMicros(25'000);  // queued for exactly 25ms of virtual time
  server->Resume();
  ASSERT_TRUE(handle.Wait().ok());
  server->Drain();

  std::vector<obs::TraceRecord> records = server->trace_store()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const obs::TraceRecord& r = records[0];
  EXPECT_EQ(r.begin_micros, submit);
  EXPECT_EQ(r.session_id, 1u);
  EXPECT_EQ(r.query_class, "interactive");
  EXPECT_EQ(r.lane, "slot-0");
  EXPECT_EQ(r.status, "ok");
  EXPECT_TRUE(r.ok);
  // Admission is instantaneous in virtual time; the queue wait is exactly
  // the 25ms spent paused; planning and execution advance no virtual time.
  EXPECT_EQ(r.PhaseMicros(obs::TracePhase::kAdmit), 0);
  EXPECT_EQ(r.PhaseMicros(obs::TracePhase::kQueueWait), 25'000);
  EXPECT_EQ(r.PhaseMicros(obs::TracePhase::kExecute), 0);
  EXPECT_EQ(r.PhaseMicros(obs::TracePhase::kSerialize), 0);
  EXPECT_EQ(r.TotalMicros(), 25'000);
}

TEST_F(ServerTest, SlowQueryLogCapturesTimelineAndAnalyzedPlan) {
  ServerOptions options;
  options.slow_query_micros = 10'000;
  auto server = dt_->MakeServer(options);
  server->Pause();
  ResponseHandle handle = server->SubmitAsync(Interactive(1, CheapSql()));
  clock_->AdvanceMicros(50'000);  // cross the threshold while queued
  server->Resume();
  ASSERT_TRUE(handle.Wait().ok());
  server->Drain();

  EXPECT_EQ(server->trace_store()->slow_count(), 1);
  std::vector<obs::TraceRecord> slow = server->trace_store()->SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_TRUE(slow[0].slow);
  EXPECT_GE(slow[0].TotalMicros(), 10'000);
  EXPECT_EQ(slow[0].PhaseMicros(obs::TracePhase::kQueueWait), 50'000);
  // A configured slow threshold arms EXPLAIN ANALYZE collection, so the
  // offender carries the plan it actually executed.
  ASSERT_FALSE(slow[0].analyzed_plan.empty());
  EXPECT_NE(slow[0].analyzed_plan.find("rows="), std::string::npos);
  EXPECT_NE(slow[0].TimelineString().find("queue_wait"), std::string::npos);
}

TEST_F(ServerTest, SlowQueryEnvOverridesConfiguredThreshold) {
  setenv("DRUGTREE_SLOW_QUERY_MICROS", "123", 1);
  ServerOptions options;
  options.slow_query_micros = 10'000;
  auto server = dt_->MakeServer(options);
  unsetenv("DRUGTREE_SLOW_QUERY_MICROS");
  EXPECT_EQ(server->trace_store()->slow_threshold_micros(), 123);
}

TEST_F(ServerTest, ShedRequestIsTracedWithShedStatus) {
  ServerOptions options;
  options.admission.interactive_queue_capacity = 0;
  auto server = dt_->MakeServer(options);
  auto result = server->Submit(Interactive(1, CheapSql()));
  ASSERT_FALSE(result.ok());
  std::vector<obs::TraceRecord> records = server->trace_store()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "shed");
  EXPECT_FALSE(records[0].ok);
}

TEST_F(ServerTest, ConcurrentRequestsEachGetTheirOwnTrace) {
  // Four slots executing in parallel: every request must finish with its
  // own trace identity — no clobbered ids, no cross-request phase bleed.
  // (Runs under TSan in tier-1 to check the trace hand-off from the submit
  // thread to the workers for races.)
  ServerOptions options;
  options.worker_threads = 4;
  options.scheduler.total_slots = 4;
  options.scheduler.interactive_slots = 4;
  options.admission.interactive_queue_capacity = 64;
  auto server = dt_->MakeServer(options);
  std::vector<ResponseHandle> handles;
  for (int i = 0; i < 24; ++i) {
    handles.push_back(server->SubmitAsync(
        Interactive(static_cast<uint64_t>(i) + 1, CheapSql())));
  }
  for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
  server->Drain();

  std::vector<obs::TraceRecord> records = server->trace_store()->Snapshot();
  ASSERT_EQ(records.size(), 24u);
  std::set<uint64_t> ids;
  std::set<uint64_t> sessions;
  for (const auto& r : records) {
    ids.insert(r.trace_id);
    sessions.insert(r.session_id);
    EXPECT_EQ(r.status, "ok");
    EXPECT_EQ(r.query_class, "interactive");
  }
  EXPECT_EQ(ids.size(), 24u);
  EXPECT_EQ(sessions.size(), 24u);
}

TEST_F(ServerTest, TailAttributionReportCoversServedClasses) {
  auto server = dt_->MakeServer();
  server->Pause();
  std::vector<ResponseHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(server->SubmitAsync(Interactive(1, CheapSql())));
  }
  handles.push_back(server->SubmitAsync(Analytic(2, CheapSql())));
  clock_->AdvanceMicros(5'000);
  server->Resume();
  for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
  server->Drain();

  std::string report = server->TailAttributionReport();
  EXPECT_NE(report.find("interactive"), std::string::npos);
  EXPECT_NE(report.find("analytic"), std::string::npos);
  EXPECT_NE(report.find("queue_wait"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Resource accounting: per-query limits, memory-pressure admission, SLOs
// ---------------------------------------------------------------------------

TEST_F(ServerTest, QueryOverHardLimitAbortsCleanlyAndServerSurvives) {
  ServerOptions options;
  options.query_memory_bytes = 4 * 1024;  // far below the sort's state
  auto server = dt_->MakeServer(options);

  // The full-table sort materializes every activity row into tracked
  // operator state, blowing the 4 KiB per-query budget.
  auto result = server->Submit(
      Analytic(1, "SELECT * FROM activities ORDER BY affinity_nm"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();

  // The abort is per-query, not per-server: a small query still runs, and
  // the aborted query's charges were fully unwound. Only the standing
  // resident-table charge remains.
  auto small = server->Submit(Interactive(2, "SELECT COUNT(*) FROM proteins"));
  EXPECT_TRUE(small.ok()) << small.status();
  server->Drain();
  EXPECT_EQ(server->memory_tracker()->used(), server->resident_table_bytes());

  auto c = server->counters(QueryClass::kAnalytic);
  EXPECT_EQ(c.failed, 1);
  EXPECT_EQ(c.memory_aborted, 1);
  EXPECT_EQ(c.shed, 0);

  // The trace names the abort cause and carries the peak the query reached.
  std::vector<obs::TraceRecord> records = server->trace_store()->Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "resource_exhausted");
  EXPECT_FALSE(records[0].ok);
  // The failed charge is rolled back, so the recorded peak only covers
  // bytes that actually resided — never more than the budget.
  EXPECT_LE(records[0].peak_memory_bytes,
            static_cast<int64_t>(options.query_memory_bytes));
  EXPECT_EQ(records[1].status, "ok");
}

TEST_F(ServerTest, MemoryPressureShedsAnalyticKeepsInteractive) {
  auto server = dt_->MakeServer();
  obs::MemoryTracker* root = server->memory_tracker();
  const int64_t soft = root->soft_limit_bytes();
  ASSERT_GT(soft, 0);
  {
    // Stage deterministic pressure: park the root just over its high
    // watermark without touching execution timing.
    obs::ScopedMemoryCharge pressure(root, soft + 1024);
    ASSERT_TRUE(root->OverSoftLimit());

    // Analytic work is shed at admission with a caller-visible status...
    auto analytic = server->Submit(Analytic(1, CheapSql()));
    ASSERT_FALSE(analytic.ok());
    EXPECT_TRUE(analytic.status().IsResourceExhausted()) << analytic.status();

    // ...while interactive traffic keeps the reserved floor.
    auto interactive = server->Submit(Interactive(2, CheapSql()));
    EXPECT_TRUE(interactive.ok()) << interactive.status();
  }
  server->Drain();

  auto ca = server->counters(QueryClass::kAnalytic);
  EXPECT_EQ(ca.memory_shed, 1);
  EXPECT_EQ(ca.shed, 1);
  EXPECT_EQ(ca.admitted, 0);
  auto ci = server->counters(QueryClass::kInteractive);
  EXPECT_EQ(ci.memory_shed, 0);
  EXPECT_EQ(ci.completed, 1);

  // A memory shed is a bad SLO outcome and is traced distinctly from a
  // queue-capacity shed.
  EXPECT_EQ(server->slo_tracker(QueryClass::kAnalytic)->GetSnapshot().bad, 1);
  bool saw_memory_shed = false;
  for (const auto& r : server->trace_store()->Snapshot()) {
    if (r.status == "shed_memory") saw_memory_shed = true;
  }
  EXPECT_TRUE(saw_memory_shed);

  // Pressure released: analytic admits again.
  EXPECT_FALSE(root->OverSoftLimit());
  EXPECT_TRUE(server->Submit(Analytic(3, CheapSql())).ok());
}

TEST_F(ServerTest, WatermarkShedPointMovesWithCompressedTables) {
  // The server charges resident table bytes against its root at
  // construction, and encoded tables charge their compressed footprint —
  // so compressing the catalog physically widens the headroom below the
  // 80% watermark. Pin that: a staged charge sized between the two
  // footprints' headrooms pushes the PLAIN server over the watermark while
  // the ENCODED server still admits analytic work.
  ASSERT_TRUE(dt_->BuildEncodedSegments().ok());
  auto encoded_server = dt_->MakeServer();
  const int64_t b_enc = encoded_server->resident_table_bytes();

  dt_->DropEncodedSegments();
  auto plain_server = dt_->MakeServer();
  const int64_t b_plain = plain_server->resident_table_bytes();
  ASSERT_TRUE(dt_->BuildEncodedSegments().ok());  // restore for later tests

  ASSERT_GT(b_plain, 0);
  ASSERT_LT(b_enc, b_plain / 2)
      << "encoded=" << b_enc << " plain=" << b_plain
      << ": corpus should compress at least 2x";

  const int64_t soft = plain_server->memory_tracker()->soft_limit_bytes();
  ASSERT_EQ(soft, encoded_server->memory_tracker()->soft_limit_bytes());
  // Midpoint between the two shed points.
  const int64_t staged = soft - (b_plain + b_enc) / 2;
  ASSERT_GT(staged, 0);
  {
    obs::ScopedMemoryCharge p1(plain_server->memory_tracker(), staged);
    obs::ScopedMemoryCharge p2(encoded_server->memory_tracker(), staged);
    EXPECT_TRUE(plain_server->memory_tracker()->OverSoftLimit());
    EXPECT_FALSE(encoded_server->memory_tracker()->OverSoftLimit());

    auto shed = plain_server->Submit(Analytic(1, CheapSql()));
    ASSERT_FALSE(shed.ok());
    EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status();

    auto admitted = encoded_server->Submit(Analytic(1, CheapSql()));
    EXPECT_TRUE(admitted.ok()) << admitted.status();
  }
  plain_server->Drain();
  encoded_server->Drain();
  EXPECT_EQ(plain_server->counters(QueryClass::kAnalytic).memory_shed, 1);
  EXPECT_EQ(encoded_server->counters(QueryClass::kAnalytic).memory_shed, 0);
}

TEST_F(ServerTest, PeakMemoryAndSloNumbersAreDeterministicOnVirtualClock) {
  struct RunResult {
    std::vector<int64_t> peaks;  // by trace_id
    obs::SloTracker::Snapshot interactive;
    obs::SloTracker::Snapshot analytic;
  };
  auto run_once = [&]() {
    ServerOptions options;
    options.worker_threads = 1;
    options.scheduler.total_slots = 1;
    auto server = dt_->MakeServer(options);
    server->Pause();
    std::vector<ResponseHandle> handles;
    for (int i = 0; i < 3; ++i) {
      handles.push_back(server->SubmitAsync(
          Interactive(10 + static_cast<uint64_t>(i), CheapSql())));
    }
    handles.push_back(server->SubmitAsync(
        Analytic(20, "SELECT * FROM activities ORDER BY affinity_nm")));
    handles.push_back(server->SubmitAsync(Analytic(
        21,
        "SELECT p.accession, COUNT(*) FROM proteins p, activities a "
        "WHERE p.accession = a.accession GROUP BY p.accession")));
    clock_->AdvanceMicros(10'000);
    server->Resume();
    for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
    server->Drain();

    RunResult out;
    std::vector<obs::TraceRecord> records = server->trace_store()->Snapshot();
    std::sort(records.begin(), records.end(),
              [](const obs::TraceRecord& a, const obs::TraceRecord& b) {
                return a.trace_id < b.trace_id;
              });
    for (const auto& r : records) out.peaks.push_back(r.peak_memory_bytes);
    out.interactive =
        server->slo_tracker(QueryClass::kInteractive)->GetSnapshot();
    out.analytic = server->slo_tracker(QueryClass::kAnalytic)->GetSnapshot();
    return out;
  };

  RunResult first = run_once();
  RunResult second = run_once();

  // Tracked memory is charged from row sizes and operator state — virtual
  // quantities — so identical workloads must produce bit-identical peaks.
  ASSERT_EQ(first.peaks.size(), 5u);
  EXPECT_EQ(first.peaks, second.peaks);
  int64_t max_peak = *std::max_element(first.peaks.begin(), first.peaks.end());
  EXPECT_GT(max_peak, 0);

  // Same for the SLO arithmetic (EXPECT_EQ on doubles: exact equality).
  EXPECT_EQ(first.interactive.window_total, 3);
  EXPECT_EQ(first.analytic.window_total, 2);
  EXPECT_EQ(first.interactive.window_good, second.interactive.window_good);
  EXPECT_EQ(first.interactive.compliance, second.interactive.compliance);
  EXPECT_EQ(first.interactive.burn_rate, second.interactive.burn_rate);
  EXPECT_EQ(first.analytic.window_good, second.analytic.window_good);
  EXPECT_EQ(first.analytic.compliance, second.analytic.compliance);
  EXPECT_EQ(first.analytic.burn_rate, second.analytic.burn_rate);
}

/// How many tracker nodes named `name` the server's tracker tree holds.
size_t CountTrackers(DrugTreeServer& server, const std::string& name) {
  const std::string json = server.memory_tracker()->ToJson();
  const std::string key = "\"name\":\"" + name + "\"";
  size_t count = 0;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    ++count;
  }
  return count;
}

// A session's tracker node lives while the session has a request in
// flight: sessions served one after another leave none behind.
TEST_F(ServerTest, SessionTrackersRetireWithTheirLastRequest) {
  auto server = dt_->MakeServer();
  for (uint64_t session = 1; session <= 2000; ++session) {
    ASSERT_TRUE(server->Submit(Interactive(session, CheapSql())).ok());
  }
  server->Drain();
  EXPECT_EQ(CountTrackers(*server, "interactive"), 1u);
  EXPECT_EQ(server->memory_tracker()->ToJson().find("session-"),
            std::string::npos)
      << server->memory_tracker()->ToJson();
}

// Two in-flight requests of one session share its node until both
// complete. Each request sleeps before planning (a RealClock fault delay),
// and the second is submitted halfway through the first's sleep.
TEST_F(ServerTest, InFlightRequestsOfOneSessionShareItsTrackerNode) {
  constexpr int64_t kDelayMicros = 400'000;
  auto server = dt_->MakeServer(ServerOptions(), util::RealClock::Instance());
  server->set_fault_execution_delay_micros(kDelayMicros);
  ResponseHandle first = server->SubmitAsync(Interactive(7, CheapSql()));
  util::RealClock::Instance()->AdvanceMicros(kDelayMicros / 2);
  ResponseHandle second = server->SubmitAsync(Interactive(7, CheapSql()));
  EXPECT_EQ(CountTrackers(*server, "session-7"), 1u);
  ASSERT_TRUE(first.Wait().ok());
  EXPECT_EQ(CountTrackers(*server, "session-7"), 1u);
  ASSERT_TRUE(second.Wait().ok());
  server->Drain();
  EXPECT_EQ(CountTrackers(*server, "session-7"), 0u);
}

TEST_F(ServerTest, StatuszExposesTrackersSlosAndOccupancy) {
  auto server = dt_->MakeServer();
  ASSERT_TRUE(server->Submit(Interactive(1, CheapSql())).ok());
  server->Drain();
  std::string json = server->Statusz();
  for (const char* key :
       {"\"memory\"", "\"slo\"", "\"admission\"", "\"scheduler\"",
        "\"classes\"", "\"trace_store\"", "\"name\":\"server\"",
        "\"interactive\"", "\"analytic\"", "\"burn_rate\"",
        "\"total_slots\"", "\"recorded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace server
}  // namespace drugtree
