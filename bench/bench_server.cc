// E10: multi-session serving under load — admission control, weighted-fair
// scheduling, and deadline-driven cancellation. A closed-loop client fleet
// (Phone3G / TabletWifi interactive overlay queries, DesktopLan analytic
// scans) sweeps offered load from unloaded to ~8x slot saturation. The
// serving claim: interactive p99 stays bounded (load shedding + deadline
// cancellation trade completed work for latency) instead of collapsing with
// the queue, and analytic work keeps making progress at every load point.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/drugtree.h"
#include "obs/alerts.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/slo_tracker.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "server/server.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using namespace drugtree;

std::unique_ptr<core::DrugTree> MakeInstance(util::SimulatedClock* clock) {
  core::BuildOptions options;
  options.seed = 13;
  options.num_families = 6;
  options.taxa_per_family = 24;  // 144 leaves -> ~286 nodes
  options.num_ligands = 300;
  auto built = core::DrugTree::Build(options, clock);
  DT_CHECK(built.ok()) << built.status();
  return std::move(*built);
}

constexpr const char* kAnalyticSql =
    "SELECT p.family, COUNT(*), AVG(a.affinity_nm) "
    "FROM proteins p, activities a WHERE p.accession = a.accession "
    "GROUP BY p.family";

struct ClientResult {
  util::Histogram latency_ms;  // completed requests only
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t failed = 0;
};

// One closed-loop client: issues the next request only after the previous
// one finishes, for `duration_micros` of wall time.
ClientResult RunClient(core::DrugTree* dt, server::DrugTreeServer* server,
                       uint64_t session_id, bool analytic,
                       int64_t deadline_budget_micros,
                       int64_t duration_micros) {
  ClientResult out;
  util::Rng rng(session_id * 7919 + 17);
  size_t num_nodes = dt->tree().NumNodes();
  util::Clock* wall = util::RealClock::Instance();
  int64_t end_at = wall->NowMicros() + duration_micros;
  while (wall->NowMicros() < end_at) {
    server::QueryRequest request;
    request.session_id = session_id;
    if (analytic) {
      request.sql = kAnalyticSql;
      request.query_class = server::QueryClass::kAnalytic;
    } else {
      request.sql = dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
      request.query_class = server::QueryClass::kInteractive;
      request.deadline_micros = wall->NowMicros() + deadline_budget_micros;
    }
    int64_t start = wall->NowMicros();
    auto result = server->Submit(std::move(request));
    int64_t micros = wall->NowMicros() - start;
    if (result.ok()) {
      ++out.completed;
      out.latency_ms.Add(static_cast<double>(micros) / 1000.0);
    } else if (result.status().IsResourceExhausted()) {
      ++out.shed;
      // Honour the busy signal: back off instead of hammering admission.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else if (result.status().IsCancelled()) {
      ++out.cancelled;
    } else {
      ++out.failed;
    }
  }
  return out;
}

// E11: the slow-query forensics pipeline, end to end, on a virtual clock so
// every number is exact and repeatable. Stage 1 builds a deterministic
// dispatch backlog (paused server + clock advance), which pushes a batch of
// requests over the slow-query threshold — the store logs them with their
// full phase timeline and EXPLAIN ANALYZE. Stage 2 replays a served mobile
// session over a 3G link with the server's TraceStore as its sink, so
// fetch-blocked time shows up in the "mobile" class. The run then emits the
// slow-query log, a Chrome trace JSON, and the per-class tail attribution
// (shares must sum to ~100%).
int RunForensics(const std::string& trace_json_path) {
  bench::Banner("E11",
                "slow-query forensics: phase timelines, slow-query log,\n"
                "Chrome trace export, per-class tail attribution");
  util::SimulatedClock clock;
  auto dt = MakeInstance(&clock);
  obs::Tracer::Default()->set_clock(&clock);
  std::printf("tree: %zu nodes, %zu leaves (virtual clock)\n",
              dt->tree().NumNodes(), dt->tree().NumLeaves());

  server::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.scheduler.total_slots = 2;
  sopts.scheduler.interactive_slots = 2;
  sopts.scheduler.analytic_slots = 1;
  sopts.admission.interactive_queue_capacity = 32;
  sopts.admission.analytic_queue_capacity = 8;
  sopts.slow_query_micros = 50'000;  // arm the slow-query log at 50ms
  auto server = dt->MakeServer(sopts);
  obs::TraceStore* store = server->trace_store();
  std::printf("slow-query threshold: %.1fms\n",
              static_cast<double>(store->slow_threshold_micros()) / 1000.0);

  // Stage 1a: unloaded requests — dispatch immediately, total ~0 virtual
  // time, nowhere near the threshold.
  util::Rng rng(23);
  size_t num_nodes = dt->tree().NumNodes();
  for (int i = 0; i < 8; ++i) {
    server::QueryRequest request;
    request.session_id = static_cast<uint64_t>(100 + i);
    request.sql = dt->OverlayQuerySql(
        static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
    request.query_class = server::QueryClass::kInteractive;
    auto r = server->Submit(std::move(request));
    DT_CHECK(r.ok()) << r.status();
  }

  // Stage 1b: a deterministic backlog. Pause dispatch, queue a burst, age
  // it 120ms of virtual time, resume: every queued request crosses the
  // threshold with queue_wait as the dominant phase.
  server->Pause();
  std::vector<server::ResponseHandle> backlog;
  for (int i = 0; i < 6; ++i) {
    server::QueryRequest request;
    request.session_id = static_cast<uint64_t>(200 + i);
    request.sql = dt->OverlayQuerySql(
        static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
    request.query_class = server::QueryClass::kInteractive;
    backlog.push_back(server->SubmitAsync(std::move(request)));
  }
  for (int i = 0; i < 2; ++i) {
    server::QueryRequest request;
    request.session_id = static_cast<uint64_t>(300 + i);
    request.sql = kAnalyticSql;
    request.query_class = server::QueryClass::kAnalytic;
    backlog.push_back(server->SubmitAsync(std::move(request)));
  }
  clock.AdvanceMicros(120'000);
  server->Resume();
  for (auto& handle : backlog) {
    auto r = handle.Wait();
    DT_CHECK(r.ok()) << r.status();
  }
  server->Drain();

  // Stage 2: a served mobile session on 3G, traced into the same store —
  // device-link transfers become fetch_blocked time in the "mobile" class.
  mobile::SessionOptions msopts;
  msopts.trace_sink = store;
  msopts.charge_real_compute = false;  // virtual-time only: bit-deterministic
  auto session = dt->MakeSession(mobile::DeviceProfile::Phone3G(), msopts,
                                 query::PlannerOptions::Optimized(),
                                 server.get(), /*session_id=*/7,
                                 /*overlay_deadline_micros=*/500'000);
  mobile::TraceParams tp;
  tp.num_actions = 20;
  auto trace = dt->MakeTrace(tp, 9);
  auto report = session.Run(trace);
  DT_CHECK(report.ok()) << report.status();
  std::printf("\n-- served mobile session (3G, traced) --\n%s",
              report->ToString().c_str());

  // Forensics output 1: the slow-query log.
  std::vector<obs::TraceRecord> slow = store->SlowQueries();
  DT_CHECK(!slow.empty()) << "backlog produced no slow queries";
  std::printf("\n-- slow-query log (%zu offenders, threshold %.0fms) --\n",
              slow.size(),
              static_cast<double>(store->slow_threshold_micros()) / 1000.0);
  std::printf("%s", slow.front().TimelineString().c_str());
  DT_CHECK(!slow.front().analyzed_plan.empty())
      << "slow offender lost its EXPLAIN ANALYZE";
  std::printf("offender plan:\n%s", slow.front().analyzed_plan.c_str());

  // Forensics output 2: Chrome trace export.
  std::string json = obs::ExportChromeTrace(store->Snapshot());
  DT_CHECK(json.rfind("{\"traceEvents\":", 0) == 0);
  std::FILE* f = std::fopen(trace_json_path.c_str(), "w");
  DT_CHECK(f != nullptr) << "cannot open " << trace_json_path;
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  // (Byte size is not printed: which slot lane served a request is
  // scheduling-dependent, so the JSON differs by a tid digit across runs
  // even though every timestamp and duration is exact.)
  std::printf("\nChrome trace (%zu records) -> %s\n", store->Snapshot().size(),
              trace_json_path.c_str());

  // Forensics output 3: per-class tail attribution. Shares must account
  // for ~100% of tail latency.
  std::printf("\n-- per-class tail attribution --\n%s",
              server->TailAttributionReport().c_str());
  auto attrs = obs::ComputeTailAttribution(store->Snapshot());
  DT_CHECK(!attrs.empty());
  for (const auto& a : attrs) {
    double sum = a.other_share;
    for (double s : a.share) sum += s;
    DT_CHECK(std::fabs(sum - 1.0) < 0.01)
        << a.query_class << " attribution sums to " << sum;
  }
  std::printf("\nshape check: every class's phase shares sum to ~100%%; the\n"
              "backlogged interactive tail is dominated by queue_wait and\n"
              "the mobile tail by fetch_blocked (3G link).\n");
  return 0;
}

// `--statusz`: runs a small deterministic workload on a virtual clock and
// prints only the server's Statusz() JSON — the machine-readable
// introspection snapshot scripts/statusz_check.sh validates.
int RunStatusz() {
  util::SimulatedClock clock;
  auto dt = MakeInstance(&clock);
  server::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.scheduler.total_slots = 2;
  auto server = dt->MakeServer(sopts);

  util::Rng rng(11);
  size_t num_nodes = dt->tree().NumNodes();
  for (int i = 0; i < 6; ++i) {
    server::QueryRequest request;
    request.session_id = static_cast<uint64_t>(1 + i % 3);
    request.sql = dt->OverlayQuerySql(
        static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
    request.query_class = server::QueryClass::kInteractive;
    auto r = server->Submit(std::move(request));
    DT_CHECK(r.ok()) << r.status();
  }
  {
    server::QueryRequest request;
    request.session_id = 9;
    request.sql = kAnalyticSql;
    request.query_class = server::QueryClass::kAnalytic;
    auto r = server->Submit(std::move(request));
    DT_CHECK(r.ok()) << r.status();
  }
  server->Drain();
  std::printf("%s\n", server->Statusz().c_str());
  return 0;
}

// E12: memory-pressure saturation sweep on a virtual clock. Resident
// pressure is staged directly against the server's root tracker (an
// unconditional ScopedMemoryCharge, so the sweep point is exact and does
// not depend on execution order), then a fixed interactive + analytic
// workload runs at each point. The resource-accounting claim: above the
// high watermark analytic work is shed at admission while interactive work
// keeps completing inside its SLO, and per-query budgets turn would-be
// OOMs into clean kResourceExhausted aborts.
int RunMemSweep() {
  bench::Banner("E12",
                "memory-pressure saturation sweep: analytic shedding,\n"
                "interactive floor, per-query budget aborts (virtual clock)");
  util::SimulatedClock clock;
  auto dt = MakeInstance(&clock);
  std::printf("tree: %zu nodes, %zu leaves (virtual clock)\n\n",
              dt->tree().NumNodes(), dt->tree().NumLeaves());

  constexpr int kInteractive = 12;
  constexpr int kAnalytic = 4;
  std::printf("%-10s %9s %9s %9s %9s %11s %11s %12s\n", "pressure",
              "int-done", "int-comp", "int-burn", "ana-done", "ana-shed",
              "ana-memshed", "peak-mb");
  for (double fraction : {0.0, 0.50, 0.85, 0.95}) {
    server::ServerOptions sopts;
    sopts.worker_threads = 2;
    sopts.scheduler.total_slots = 2;
    auto server = dt->MakeServer(sopts);
    obs::MemoryTracker* root = server->memory_tracker();
    int64_t staged = static_cast<int64_t>(
        fraction * static_cast<double>(sopts.server_memory_bytes));
    obs::ScopedMemoryCharge pressure(root, staged);

    server->Pause();
    std::vector<server::ResponseHandle> handles;
    util::Rng rng(41);
    size_t num_nodes = dt->tree().NumNodes();
    for (int i = 0; i < kInteractive; ++i) {
      server::QueryRequest request;
      request.session_id = static_cast<uint64_t>(1 + i % 4);
      request.sql = dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
      request.query_class = server::QueryClass::kInteractive;
      handles.push_back(server->SubmitAsync(std::move(request)));
    }
    for (int i = 0; i < kAnalytic; ++i) {
      server::QueryRequest request;
      request.session_id = static_cast<uint64_t>(20 + i);
      request.sql = kAnalyticSql;
      request.query_class = server::QueryClass::kAnalytic;
      handles.push_back(server->SubmitAsync(std::move(request)));
    }
    clock.AdvanceMicros(10'000);
    server->Resume();
    for (auto& h : handles) h.Wait();  // sheds resolve to statuses
    server->Drain();

    auto ci = server->counters(server::QueryClass::kInteractive);
    auto ca = server->counters(server::QueryClass::kAnalytic);
    auto si = server->slo_tracker(server::QueryClass::kInteractive)
                  ->GetSnapshot();
    bool over = fraction >= sopts.memory_high_watermark;
    // Shape gates: the interactive floor holds at every pressure point;
    // analytic admission flips exactly at the watermark.
    DT_CHECK(ci.completed == kInteractive) << "interactive floor broken";
    DT_CHECK(ci.memory_shed == 0);
    DT_CHECK(ca.memory_shed == (over ? kAnalytic : 0))
        << "at pressure " << fraction;
    DT_CHECK(ca.completed == (over ? 0 : kAnalytic));
    std::printf("%8.0f%% %9lld %9.4f %9.3f %9lld %11lld %11lld %10.2f\n",
                fraction * 100.0, (long long)ci.completed, si.compliance,
                si.burn_rate, (long long)ca.completed, (long long)ca.shed,
                (long long)ca.memory_shed,
                static_cast<double>(root->peak()) / (1024.0 * 1024.0));
  }

  // Per-query budget point: a 4 KiB budget turns the full-table sort into
  // a clean caller-visible abort, and the server keeps serving.
  {
    server::ServerOptions sopts;
    sopts.worker_threads = 2;
    sopts.scheduler.total_slots = 2;
    sopts.query_memory_bytes = 4 * 1024;
    auto server = dt->MakeServer(sopts);
    server::QueryRequest request;
    request.session_id = 1;
    request.sql = "SELECT * FROM activities ORDER BY affinity_nm";
    request.query_class = server::QueryClass::kAnalytic;
    auto r = server->Submit(std::move(request));
    DT_CHECK(!r.ok() && r.status().IsResourceExhausted()) << r.status();
    auto ca = server->counters(server::QueryClass::kAnalytic);
    DT_CHECK(ca.memory_aborted == 1);
    std::printf("\nper-query budget: 4KiB sort abort -> %s\n",
                r.status().ToString().c_str());
  }

  // Encoded-segment shed point: the server charges resident table bytes at
  // construction (compressed bytes when encoded), so compressing the
  // catalog moves the 80% watermark shed point by exactly the saved bytes.
  // Staging pressure midway between the two footprints' headrooms makes
  // the plain server shed analytic work while the encoded server admits.
  {
    DT_CHECK(dt->BuildEncodedSegments().ok());
    auto encoded_server = dt->MakeServer();
    int64_t b_enc = encoded_server->resident_table_bytes();
    dt->DropEncodedSegments();
    auto plain_server = dt->MakeServer();
    int64_t b_plain = plain_server->resident_table_bytes();
    DT_CHECK(dt->BuildEncodedSegments().ok());
    DT_CHECK(b_enc > 0 && b_enc < b_plain)
        << "encoded " << b_enc << " plain " << b_plain;

    int64_t soft = plain_server->memory_tracker()->soft_limit_bytes();
    int64_t staged = soft - (b_plain + b_enc) / 2;
    obs::ScopedMemoryCharge p1(plain_server->memory_tracker(), staged);
    obs::ScopedMemoryCharge p2(encoded_server->memory_tracker(), staged);

    auto make_analytic = [] {
      server::QueryRequest request;
      request.session_id = 1;
      request.sql = kAnalyticSql;
      request.query_class = server::QueryClass::kAnalytic;
      return request;
    };
    auto shed = plain_server->Submit(make_analytic());
    auto admitted = encoded_server->Submit(make_analytic());
    DT_CHECK(!shed.ok() && shed.status().IsResourceExhausted())
        << shed.status();
    DT_CHECK(admitted.ok()) << admitted.status();
    plain_server->Drain();
    encoded_server->Drain();
    std::printf(
        "\nencoded shed point: resident tables %.1f KB plain -> %.1f KB\n"
        "encoded (%.2fx); at %.1f KB staged pressure the plain server sheds\n"
        "analytic work, the encoded server admits it.\n",
        static_cast<double>(b_plain) / 1024.0,
        static_cast<double>(b_enc) / 1024.0,
        static_cast<double>(b_plain) / static_cast<double>(b_enc),
        static_cast<double>(staged) / 1024.0);
  }

  std::printf("\nshape check: interactive completes everything at every\n"
              "pressure point; analytic admission flips off exactly at the\n"
              "%d%% watermark; budget breaches abort, never OOM; the shed\n"
              "point moves with the catalog's compression ratio.\n",
              80);
  return 0;
}

// E16: continuous telemetry on a virtual clock. A single-slot server runs a
// serialized closed-loop workload in three phases — healthy, browned-out
// (the fault knob adds 20ms of virtual execution delay, 4x the 5ms
// interactive SLO), recovery — while the sampler records the metric
// timeline and the alert engine watches the SLO burn rate. The telemetry
// claim: the multi-window burn-rate alert fires during the brown-out (and
// only then), health goes critical, the alert resolves once the faulted
// requests roll out of the SLO window, and the whole timeline + alert
// history is *bit-identical* across runs — which is what perf_gate.sh
// stands on.
struct TelemetryRunResult {
  std::string timeline_json;
  std::string alerts_json;
  int64_t timeline_points = 0;
  size_t num_series = 0;
  int64_t burn_fired = 0;
  int64_t burn_resolved = 0;
};

TelemetryRunResult RunTelemetryScenarioOnce() {
  // Registry metrics are process-global and cumulative; reset so the second
  // run starts from the same state as the first.
  obs::MetricRegistry::Default()->ResetAll();
  util::SimulatedClock clock;
  auto dt = MakeInstance(&clock);

  server::ServerOptions sopts;
  sopts.worker_threads = 1;
  sopts.scheduler.total_slots = 1;
  sopts.scheduler.interactive_slots = 1;
  sopts.scheduler.analytic_slots = 1;
  sopts.interactive_slo_micros = 5'000;    // fault delay (20ms) is 4x this
  sopts.slo_window_micros = 2'000'000;     // 2s rolling SLO window
  sopts.telemetry.sample_interval_micros = 100'000;
  auto server = dt->MakeServer(sopts);
  DT_CHECK(server->timeline() != nullptr)
      << "telemetry disabled (DRUGTREE_TELEMETRY=0?) -- E16 needs it on";

  util::Rng rng(31);
  size_t num_nodes = dt->tree().NumNodes();
  auto pump = [&](int n) {
    for (int i = 0; i < n; ++i) {
      server::QueryRequest request;
      request.session_id = 1;
      request.sql = dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
      request.query_class = server::QueryClass::kInteractive;
      auto r = server->Submit(std::move(request));
      DT_CHECK(r.ok()) << r.status();
      clock.AdvanceMicros(50'000);  // 20 requests/s of virtual time
    }
  };

  pump(20);  // phase 1: healthy (zero virtual latency, SLO met)
  DT_CHECK(server->health() == obs::HealthState::kHealthy)
      << "healthy phase ended " << obs::HealthStateName(server->health());

  server->set_fault_execution_delay_micros(20'000);
  pump(20);  // phase 2: brown-out (every request misses the 5ms SLO)
  DT_CHECK(server->health() == obs::HealthState::kCritical)
      << "brown-out did not go critical: "
      << obs::HealthStateName(server->health());

  server->set_fault_execution_delay_micros(0);
  // Phase 3: recovery. 3s of virtual time -- the SLO window is 2s and the
  // last faulted request landed ~2.4s in (the fault itself advances the
  // clock), so the misses roll out with a full second of clean samples to
  // spare for the alert's own short window to drop below threshold.
  pump(60);
  server->Drain();
  DT_CHECK(server->health() == obs::HealthState::kHealthy)
      << "recovery ended " << obs::HealthStateName(server->health());

  TelemetryRunResult out;
  out.timeline_json = server->timeline()->ToJson();
  out.alerts_json = server->alert_engine()->ToJson();
  out.timeline_points = server->timeline()->total_points();
  out.num_series = server->timeline()->num_series();
  for (const obs::AlertStatus& s : server->alert_engine()->Statuses()) {
    if (s.rule.name != "interactive_burn") continue;
    out.burn_fired = s.fired;
    out.burn_resolved = s.resolved;
    DT_CHECK(s.state == obs::AlertState::kInactive)
        << "interactive_burn still " << obs::AlertStateName(s.state);
  }
  DT_CHECK(out.burn_fired == 1 && out.burn_resolved == 1)
      << "interactive_burn fired " << out.burn_fired << " resolved "
      << out.burn_resolved;
  return out;
}

int RunTelemetry(const std::string& timeline_json_path) {
  bench::Banner("E16",
                "continuous telemetry: deterministic metric timeline,\n"
                "burn-rate alert firing/resolution, health transitions");
  TelemetryRunResult a = RunTelemetryScenarioOnce();
  TelemetryRunResult b = RunTelemetryScenarioOnce();
  DT_CHECK(a.timeline_json == b.timeline_json)
      << "timeline JSON differs across identical runs";
  DT_CHECK(a.alerts_json == b.alerts_json)
      << "alert JSON differs across identical runs";
  std::printf("timeline: %zu series, %lld points (ring-bounded)\n",
              a.num_series, (long long)a.timeline_points);
  std::printf("interactive_burn: fired %lld, resolved %lld\n",
              (long long)a.burn_fired, (long long)a.burn_resolved);
  std::printf("bit-determinism: run1 == run2 (%zu timeline bytes, "
              "%zu alert bytes)\n",
              a.timeline_json.size(), a.alerts_json.size());

  std::string artifact = "{\"timeline\":" + a.timeline_json +
                         ",\"alerts\":" + a.alerts_json + "}";
  std::FILE* f = std::fopen(timeline_json_path.c_str(), "w");
  DT_CHECK(f != nullptr) << "cannot open " << timeline_json_path;
  std::fprintf(f, "%s\n", artifact.c_str());
  std::fclose(f);
  std::printf("timeline artifact -> %s (%zu bytes)\n",
              timeline_json_path.c_str(), artifact.size());

  std::printf("\nshape check: the burn-rate alert fires exactly once (during\n"
              "the injected brown-out), resolves after the SLO window rolls\n"
              "clear, health walks healthy -> critical -> healthy, and both\n"
              "runs produce byte-identical telemetry.\n");
  return 0;
}

// `--abprobe`: a fixed-count serialized real-clock workload whose total
// wall time is the only output. scripts/obs_noop_ab.sh runs it with
// DRUGTREE_TELEMETRY=0 vs =1 (interleaved, best-of-N) to bound telemetry
// overhead. The 10ms sample interval makes sampling *actually happen* many
// times within the run, unlike the 250ms default. The timed loop serves
// 4000 requests, about 0.12 s on a shared 4-vCPU host: 400 lasted about
// 14 ms there, short enough for one scheduler hiccup to outweigh the
// budget.
int RunAbProbe() {
  util::SimulatedClock build_clock;
  auto dt = MakeInstance(&build_clock);
  server::ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.scheduler.total_slots = 2;
  sopts.telemetry.sample_interval_micros = 10'000;
  auto server = dt->MakeServer(sopts, util::RealClock::Instance());

  util::Rng rng(3);
  size_t num_nodes = dt->tree().NumNodes();
  util::Clock* wall = util::RealClock::Instance();
  auto submit_one = [&] {
    server::QueryRequest request;
    request.session_id = 1;
    request.sql = dt->OverlayQuerySql(
        static_cast<phylo::NodeId>(rng.Uniform(num_nodes)));
    request.query_class = server::QueryClass::kInteractive;
    auto r = server->Submit(std::move(request));
    DT_CHECK(r.ok()) << r.status();
  };
  for (int i = 0; i < 50; ++i) submit_one();  // warm caches + pool
  int64_t start = wall->NowMicros();
  for (int i = 0; i < 4000; ++i) submit_one();
  int64_t micros = wall->NowMicros() - start;
  server->Drain();
  std::printf("abprobe_micros: %lld\n", (long long)micros);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  // `--forensics [--trace-json=path]` runs the deterministic E11 forensics
  // pipeline instead of the E10 load sweep.
  bool forensics = false;
  bool statusz = false;
  bool memsweep = false;
  bool telemetry = false;
  bool abprobe = false;
  std::string trace_json_path = "bench_forensics_trace.json";
  std::string timeline_json_path = "bench_server_timeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--forensics") == 0) forensics = true;
    if (std::strcmp(argv[i], "--statusz") == 0) statusz = true;
    if (std::strcmp(argv[i], "--memsweep") == 0) memsweep = true;
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
    if (std::strcmp(argv[i], "--abprobe") == 0) abprobe = true;
    if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
    }
    if (std::strncmp(argv[i], "--timeline-json=", 16) == 0) {
      timeline_json_path = argv[i] + 16;
    }
  }
  // `--statusz` keeps stdout machine-readable: the JSON snapshot only.
  if (statusz) return RunStatusz();
  // `--abprobe` keeps stdout machine-readable: the wall-time line only.
  if (abprobe) return RunAbProbe();
  if (telemetry) {
    int rc = RunTelemetry(timeline_json_path);
    drugtree::bench::DumpMetrics(metrics_flag);
    return rc;
  }
  if (memsweep) {
    int rc = RunMemSweep();
    drugtree::bench::DumpMetrics(metrics_flag);
    return rc;
  }
  if (forensics) {
    int rc = RunForensics(trace_json_path);
    drugtree::bench::DumpMetrics(metrics_flag);
    return rc;
  }
  bench::Banner("E10",
                "multi-session serving under offered-load sweep:\n"
                "admission shedding, fair scheduling, deadline cancellation");
  util::SimulatedClock build_clock;
  auto dt = MakeInstance(&build_clock);
  std::printf("tree: %zu nodes, %zu leaves\n", dt->tree().NumNodes(),
              dt->tree().NumLeaves());

  server::ServerOptions sopts;
  sopts.worker_threads = 4;
  sopts.scheduler.total_slots = 4;
  sopts.scheduler.interactive_slots = 3;
  sopts.scheduler.analytic_slots = 2;
  sopts.admission.interactive_queue_capacity = 8;
  sopts.admission.analytic_queue_capacity = 4;
  auto server = dt->MakeServer(sopts, util::RealClock::Instance());

  // Sanity: the served path returns exactly what the direct planner does.
  {
    auto direct = dt->Query(kAnalyticSql);
    DT_CHECK(direct.ok()) << direct.status();
    server::QueryRequest request;
    request.session_id = 0;
    request.sql = kAnalyticSql;
    request.query_class = server::QueryClass::kAnalytic;
    auto served = server->Submit(std::move(request));
    DT_CHECK(served.ok()) << served.status();
    DT_CHECK(direct->result.rows == served->result.rows);
    std::printf("row-for-row vs direct executor: ok (%zu rows)\n",
                served->result.rows.size());
  }

  // Calibrate: unloaded interactive latency sets the deadline budget.
  util::Histogram unloaded;
  {
    util::Rng rng(5);
    util::Clock* wall = util::RealClock::Instance();
    for (int i = 0; i < 60; ++i) {
      server::QueryRequest request;
      request.session_id = 1;
      request.sql = dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(rng.Uniform(dt->tree().NumNodes())));
      request.query_class = server::QueryClass::kInteractive;
      int64_t start = wall->NowMicros();
      auto r = server->Submit(std::move(request));
      DT_CHECK(r.ok()) << r.status();
      unloaded.Add(static_cast<double>(wall->NowMicros() - start) / 1000.0);
    }
  }
  double unloaded_p99_ms = unloaded.Percentile(99);
  // The interactive SLO: ~1.5x unloaded p99 (floored against timer jitter).
  int64_t deadline_budget_micros =
      std::max<int64_t>(2'000, static_cast<int64_t>(unloaded_p99_ms * 1500.0));
  std::printf("unloaded interactive: %s -> deadline budget %.1fms\n\n",
              bench::PercentileSummary(unloaded).c_str(),
              static_cast<double>(deadline_budget_micros) / 1000.0);

  // Offered-load sweep. 4 slots serve the fleet; every 4th client is a
  // DesktopLan analyst issuing grouped scans, the rest are Phone3G /
  // TabletWifi sessions issuing deadline-bound overlay queries.
  std::printf("%-8s %10s %8s %8s %8s %9s %9s %10s\n", "clients", "int-qps",
              "p50(ms)", "p95(ms)", "p99(ms)", "shed%", "miss%", "ana-done");
  constexpr int64_t kDurationMicros = 500'000;
  for (int clients : {1, 4, 8, 16, 32}) {
    std::vector<ClientResult> results(static_cast<size_t>(clients));
    std::vector<std::thread> fleet;
    fleet.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      bool analytic = clients > 1 && (c % 4) == 3;
      fleet.emplace_back([&, c, analytic] {
        results[static_cast<size_t>(c)] =
            RunClient(dt.get(), server.get(), static_cast<uint64_t>(c + 1),
                      analytic, deadline_budget_micros, kDurationMicros);
      });
    }
    for (auto& t : fleet) t.join();

    util::Histogram interactive;
    int64_t completed = 0, shed = 0, cancelled = 0, failed = 0;
    int64_t analytic_done = 0;
    for (int c = 0; c < clients; ++c) {
      const ClientResult& r = results[static_cast<size_t>(c)];
      if (clients > 1 && (c % 4) == 3) {
        analytic_done += r.completed;
        continue;
      }
      interactive.Merge(r.latency_ms);
      completed += r.completed;
      shed += r.shed;
      cancelled += r.cancelled;
      failed += r.failed;
    }
    DT_CHECK(failed == 0);
    int64_t offered = completed + shed + cancelled;
    double qps = static_cast<double>(completed) /
                 (static_cast<double>(kDurationMicros) / 1e6);
    auto pct = [&](int64_t n) {
      return offered > 0 ? 100.0 * static_cast<double>(n) /
                               static_cast<double>(offered)
                         : 0.0;
    };
    std::printf("%-8d %10.0f %8.2f %8.2f %8.2f %8.1f%% %8.1f%% %10lld\n",
                clients, qps, interactive.Median(),
                interactive.Percentile(95), interactive.Percentile(99),
                pct(shed), pct(cancelled), (long long)analytic_done);
  }

  std::printf("\nshape check: completed-interactive p99 stays within the\n"
              "deadline budget at every load point (shed + cancelled absorb\n"
              "the overload); analytic throughput never drops to zero.\n");
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
