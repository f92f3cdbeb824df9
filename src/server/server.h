// DrugTreeServer: the multi-session query serving layer. Sits between
// clients (mobile sessions, analyst shells, load generators) and the query
// engine, and owns the full serving pipeline:
//
//   Submit -> AdmissionController (bounded per-class queues, load shedding)
//          -> FairScheduler (deadline-aware weighted-fair dispatch)
//          -> util::ThreadPool workers -> per-slot query::Planner
//          -> ResponseHandle (futures-style completion)
//
// Deadlines are enforced, not advisory: every dispatched request carries a
// query::QueryContext, so an expired deadline (or an explicit Cancel) stops
// execution at the next operator checkpoint with kCancelled.
//
// Thread-safety: Submit/SubmitAsync/Pause/Resume/Drain and the stat
// accessors may be called from any thread. The server serves reads; catalog
// mutations (AddActivity et al.) require the server to be drained first.

#ifndef DRUGTREE_SERVER_SERVER_H_
#define DRUGTREE_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/alerts.h"
#include "obs/cost_calibrator.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/slo_tracker.h"
#include "obs/timeseries.h"
#include "obs/trace_store.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/query_context.h"
#include "query/result_cache.h"
#include "server/adaptive.h"
#include "server/admission.h"
#include "server/request.h"
#include "server/scheduler.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace drugtree {
namespace server {

/// Continuous telemetry: a TimeSeriesStore of sampled metric history plus
/// an AlertEngine evaluated at well-defined points (request completion,
/// Drain, Statusz) — never from a dedicated thread, so SimulatedClock
/// workloads stay bit-deterministic. The DRUGTREE_TELEMETRY environment
/// variable overrides `enabled` ("0" disables) for overhead A/B runs.
struct TelemetryOptions {
  bool enabled = true;
  /// Minimum micros between samples.
  int64_t sample_interval_micros = 250'000;
  /// Retained points per series (ring; oldest evicted).
  size_t timeline_points = 240;
  /// Install the built-in rule set (memory pressure, per-class SLO burn
  /// rate, queue growth, plan-cache collapse, scheduler saturation).
  bool default_rules = true;
  /// Additional rules appended after the defaults.
  std::vector<obs::AlertRule> extra_rules;
};

struct ServerOptions {
  /// Worker threads executing dispatched requests. Keep >= scheduler
  /// total_slots so a dispatched request never queues inside the pool.
  int worker_threads = 4;
  AdmissionOptions admission;
  SchedulerOptions scheduler;
  /// Server-owned semantic result cache shared by every worker (requests
  /// opt in via PlannerOptions::use_result_cache). 0 disables it.
  uint64_t result_cache_bytes = 16 * 1024 * 1024;
  /// Per-request tracing: every request carries an obs::TraceContext whose
  /// finished record lands in the server's TraceStore. Cheap (a handful of
  /// clock reads per request); turn off only for overhead A/B runs.
  bool enable_tracing = true;
  /// Retained completed traces (ring buffer; oldest overwritten).
  size_t trace_store_capacity = 4096;
  /// Slow-query threshold in micros; > 0 turns on the slow-query log (full
  /// phase timeline + EXPLAIN ANALYZE of offenders at WARNING) and makes
  /// workers collect analyze stats. 0 = off. Overridden by the
  /// DRUGTREE_SLOW_QUERY_MICROS environment variable when set.
  int64_t slow_query_micros = 0;

  /// Stable shard identity when this server is one replica of a sharded
  /// topology (e.g. "s2r0"); empty for a standalone single-node server.
  /// Non-empty ids add a {"shard": id} label to the per-class registry
  /// metrics (so shed / deadline-miss counters attribute per shard) and a
  /// "shard" block to Statusz(); the empty default keeps single-node metric
  /// label sets and the Statusz shape exactly as before.
  std::string shard_id;

  /// Resource accounting. The server owns a tracker hierarchy
  /// (server -> class -> session -> query); these knobs size its limits.
  /// Total tracked bytes the server budgets for (root hard limit; charges
  /// beyond it fail with kResourceExhausted).
  uint64_t server_memory_bytes = 256 * 1024 * 1024;
  /// Fraction of server_memory_bytes at which the server is "under memory
  /// pressure": analytic submissions are shed at admission while
  /// interactive traffic keeps the remaining headroom as its reserved
  /// floor.
  double memory_high_watermark = 0.80;
  /// Per-query hard limit (tracked operator state + result buffer). A query
  /// crossing it aborts with kResourceExhausted instead of OOMing the
  /// process. 0 = unlimited.
  uint64_t query_memory_bytes = 64 * 1024 * 1024;

  /// Per-class latency SLOs: target latency (enqueue -> completion) and the
  /// fraction of requests expected to meet it, tracked over a rolling
  /// window (see obs::SloTracker).
  int64_t interactive_slo_micros = 50'000;
  int64_t analytic_slo_micros = 1'000'000;
  double slo_objective = 0.99;
  int64_t slo_window_micros = 60'000'000;

  /// Parameterized plan cache shared by every planner slot: optimized
  /// logical plans are cached as templates keyed by structural fingerprint
  /// and re-bound to each statement's literals (see query::PlanCache).
  /// Invalidation is version-driven, so the cache stays correct across
  /// catalog mutations, Analyze, and encoded-segment builds/drops.
  bool enable_plan_cache = true;
  size_t plan_cache_entries = 256;
  /// Fold observed per-operator timings (from analyzed executions) back
  /// into the optimizer's cost coefficients (see obs::CostCalibrator).
  bool enable_cost_calibration = true;
  /// Closed-loop retuning of per-class parallelism from interactive tail
  /// latency. Disabled by default.
  AdaptiveOptions adaptive;
  /// Continuous telemetry: sampled metric history + alerting + health.
  TelemetryOptions telemetry;
};

/// Shared completion state behind a ResponseHandle. Internal to the serving
/// layer; clients interact through the handle.
class ResponseState {
 public:
  ResponseState() : result_(util::Status::Internal("pending")) {}

 private:
  friend class DrugTreeServer;
  friend class ResponseHandle;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool consumed_ = false;
  util::Result<query::QueryOutcome> result_;
  std::atomic<bool> cancel_{false};
};

/// Futures-style handle to an in-flight request. Copyable; all copies share
/// the same completion state. The result is move-consumed by the first
/// Wait() call.
class ResponseHandle {
 public:
  ResponseHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the request has completed (successfully or not).
  bool Done() const;

  /// Requests cooperative cancellation: takes effect before dispatch if the
  /// request is still queued, at the next operator checkpoint otherwise.
  void Cancel();

  /// Blocks until completion and moves the result out. A second call
  /// returns kInternal ("result already consumed").
  util::Result<query::QueryOutcome> Wait();

 private:
  friend class DrugTreeServer;
  explicit ResponseHandle(std::shared_ptr<ResponseState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<ResponseState> state_;
};

class DrugTreeServer {
 public:
  /// Per-class serving outcomes (snapshot; shed comes from admission).
  struct ClassCounters {
    int64_t admitted = 0;
    int64_t shed = 0;
    int64_t completed = 0;
    int64_t failed = 0;            // non-cancellation errors
    int64_t cancelled = 0;         // kCancelled (flag or deadline)
    int64_t deadline_missed = 0;   // subset of cancelled: deadline-driven
    int64_t memory_shed = 0;       // shed at admission under memory pressure
    int64_t memory_aborted = 0;    // subset of failed: per-query hard limit
  };

  /// `catalog` and `clock` are borrowed and must outlive the server. The
  /// clock times deadlines and queue waits: RealClock for live serving,
  /// SimulatedClock for deterministic tests.
  DrugTreeServer(query::Catalog* catalog, util::Clock* clock,
                 const ServerOptions& options = ServerOptions());

  /// Resumes, drains, and joins the workers.
  ~DrugTreeServer();

  DrugTreeServer(const DrugTreeServer&) = delete;
  DrugTreeServer& operator=(const DrugTreeServer&) = delete;

  /// Admits and eventually executes `request`. Returns immediately; a shed
  /// request's handle is already Done() with kResourceExhausted.
  ResponseHandle SubmitAsync(QueryRequest request);

  /// Synchronous convenience: SubmitAsync + Wait.
  util::Result<query::QueryOutcome> Submit(QueryRequest request);

  /// Stops dispatching (queues keep admitting). Tests use this to stage a
  /// deterministic backlog; operationally it is maintenance mode.
  void Pause();
  void Resume();

  /// Blocks until every admitted request has completed. Resume first if
  /// paused, or queued work will keep Drain waiting.
  void Drain();

  util::Clock* clock() const { return clock_; }
  query::ResultCache* result_cache() { return result_cache_.get(); }
  /// Always present; fed by the planners only when the matching
  /// ServerOptions flag is on, so a disabled feature reads as all-zero
  /// stats rather than a missing block.
  query::PlanCache* plan_cache() { return plan_cache_.get(); }
  obs::CostCalibrator* cost_calibrator() { return calibrator_.get(); }
  const AdaptiveController* adaptive() const { return adaptive_.get(); }

  /// Completed per-request traces (slow-query log, Chrome export, tail
  /// attribution). Always present; empty when tracing is disabled.
  obs::TraceStore* trace_store() { return &trace_store_; }

  /// Per-class tail-latency attribution over everything traced so far, one
  /// line per class ("interactive p99=12.40ms (n=3/300): 71% queue_wait ...").
  /// Also publishes server.tail.p99_micros{class=} and
  /// server.tail.share_pct{class=,phase=} gauges to the metric registry.
  std::string TailAttributionReport();

  ClassCounters counters(QueryClass c) const;

  /// The root of the server's memory-tracker hierarchy. Tests and benches
  /// use it to inspect usage or to stage deterministic pressure (an
  /// obs::ScopedMemoryCharge against the root pushes the server over its
  /// high watermark regardless of execution timing).
  obs::MemoryTracker* memory_tracker() { return &memory_root_; }

  /// Standing charge for catalog-resident table data, taken against the
  /// root at construction under the "tables" child. Encoded tables charge
  /// their compressed footprint, so building encoded segments widens the
  /// headroom under the memory high watermark (the 80% shed point moves
  /// with the compression ratio).
  int64_t resident_table_bytes() const { return resident_table_bytes_; }

  /// Per-class SLO state (rolling compliance + error-budget burn rate).
  const obs::SloTracker* slo_tracker(QueryClass c) const {
    return slo_[static_cast<size_t>(c)].get();
  }

  // Continuous telemetry ------------------------------------------------

  /// Sampled metric history; null when telemetry is disabled.
  obs::TimeSeriesStore* timeline() { return timeline_.get(); }
  /// Alert rules + firing state; null when telemetry is disabled.
  obs::AlertEngine* alert_engine() { return alerts_.get(); }

  /// Samples the timeline if the interval elapsed, then re-evaluates the
  /// alert rules and the cached health. Invoked from request completion,
  /// Drain, and Statusz; tests and benches may call it directly. Must NOT
  /// be called with mu_ held (probes read server state). Returns whether a
  /// sample was taken (always false when telemetry is disabled).
  bool TelemetryTick();
  /// Unconditional sample + evaluation (tests; no-op when disabled).
  void ForceTelemetrySample();

  /// Cached overall health from the last alert evaluation — a relaxed
  /// atomic read, cheap enough for the ShardRouter's replica picker.
  obs::HealthState health() const {
    return static_cast<obs::HealthState>(
        overall_health_.load(std::memory_order_relaxed));
  }
  /// Fresh per-subsystem rollup (admission, scheduler, plan_cache, memory,
  /// serving) derived from the currently-firing alerts.
  obs::HealthSnapshot HealthSnapshotNow() const;

  /// Fault-injection knob (benches/tests): every executed request advances
  /// the server clock by this many micros before planning — a SimulatedClock
  /// jumps (deterministic brown-out), a RealClock sleeps. 0 = off.
  void set_fault_execution_delay_micros(int64_t micros) {
    fault_execution_delay_micros_.store(micros, std::memory_order_relaxed);
  }
  int64_t fault_execution_delay_micros() const {
    return fault_execution_delay_micros_.load(std::memory_order_relaxed);
  }

  /// One-call JSON introspection snapshot: the full memory-tracker tree,
  /// per-class SLO state, admission queue occupancy, scheduler slots,
  /// per-class serving counters, TraceStore totals, and the telemetry
  /// timeline / alerts / health blocks. Exported by `bench_server
  /// --statusz`.
  std::string Statusz();

  /// Test/debug hook: record session ids in dispatch order. Off by default
  /// (the log grows per dispatched request).
  void EnableDispatchLog();
  std::vector<uint64_t> TakeDispatchLog();

 private:
  struct ClassMetrics {
    obs::HistogramMetric* latency_ms = nullptr;  // completed requests only
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* deadline_missed = nullptr;
  };

  /// Dispatches admitted requests onto free slots until the scheduler has
  /// nothing runnable. Caller holds mu_.
  void DispatchLocked();

  /// Runs one request on a pool worker using the slot's planner, then
  /// completes its response state and releases the slot.
  void Execute(PendingRequest req, int slot);

  /// Completes a response state (own mutex; safe without mu_).
  static void Complete(const std::shared_ptr<ResponseState>& state,
                       util::Result<query::QueryOutcome> result);

  query::Catalog* catalog_;
  util::Clock* clock_;
  ServerOptions options_;
  obs::TraceStore trace_store_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_query_id_{1};
  /// Root of the tracker hierarchy; class nodes are owned children. Session
  /// nodes are created lazily under their class node; per-query trackers
  /// are stack-local in Execute() and parent into the session node, so the
  /// tree only holds long-lived nodes.
  obs::MemoryTracker memory_root_;
  std::array<obs::MemoryTracker*, kNumQueryClasses> class_trackers_{};
  int64_t resident_table_bytes_ = 0;
  std::array<std::unique_ptr<obs::SloTracker>, kNumQueryClasses> slo_;
  std::unique_ptr<query::ResultCache> result_cache_;
  std::unique_ptr<query::PlanCache> plan_cache_;
  std::unique_ptr<obs::CostCalibrator> calibrator_;
  std::unique_ptr<AdaptiveController> adaptive_;
  /// One planner per scheduler slot: a slot is an exclusive token, so its
  /// planner (and any lazily created morsel pool) is never shared.
  std::vector<std::unique_ptr<query::Planner>> planners_;
  std::array<ClassMetrics, kNumQueryClasses> metrics_;
  obs::Gauge* pool_queue_gauge_ = nullptr;
  obs::Gauge* free_slots_gauge_ = nullptr;

  /// Telemetry (all null when disabled). telemetry_mu_ serializes
  /// sample+evaluate passes so concurrent completions cannot interleave a
  /// sample with a rule evaluation.
  std::unique_ptr<obs::TimeSeriesStore> timeline_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::mutex telemetry_mu_;
  std::atomic<int> overall_health_{0};
  std::atomic<int64_t> fault_execution_delay_micros_{0};

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  AdmissionController admission_;                      // guarded by mu_
  FairScheduler scheduler_;                            // guarded by mu_
  std::vector<int> free_slots_;                        // guarded by mu_
  std::array<ClassCounters, kNumQueryClasses> counters_{};  // guarded by mu_
  bool paused_ = false;                                // guarded by mu_
  bool dispatch_log_enabled_ = false;                  // guarded by mu_
  std::vector<uint64_t> dispatch_log_;                 // guarded by mu_

  /// Declared last: destroyed (drained + joined) before any member a
  /// worker task could still reference.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace server
}  // namespace drugtree

#endif  // DRUGTREE_SERVER_SERVER_H_
