#include "server/server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/string_util.h"

namespace drugtree {
namespace server {

namespace {

/// DRUGTREE_SLOW_QUERY_MICROS overrides ServerOptions::slow_query_micros so
/// operators can arm the slow-query log on a deployed binary without a
/// rebuild. Unset / unparsable -> the configured value.
int64_t ResolveSlowQueryMicros(int64_t configured) {
  const char* env = std::getenv("DRUGTREE_SLOW_QUERY_MICROS");
  if (env == nullptr || env[0] == '\0') return configured;
  char* end = nullptr;
  long long parsed = std::strtoll(env, &end, 10);
  if (end == env || parsed < 0) return configured;
  return static_cast<int64_t>(parsed);
}

/// DRUGTREE_TELEMETRY=0 kills the sampler/alert wiring on a deployed binary
/// (the obs_noop_ab overhead lane); any other value keeps the configured
/// setting.
bool ResolveTelemetryEnabled(bool configured) {
  const char* env = std::getenv("DRUGTREE_TELEMETRY");
  if (env == nullptr || env[0] == '\0') return configured;
  return !(env[0] == '0' && env[1] == '\0');
}

/// Health rollup buckets every server reports on, even when no alert
/// targets them yet.
const std::vector<std::string>& HealthBaseline() {
  static const std::vector<std::string>* baseline =
      new std::vector<std::string>{"admission", "scheduler", "plan_cache",
                                   "memory", "serving"};
  return *baseline;
}

}  // namespace

bool ResponseHandle::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu_);
  return state_->done_;
}

void ResponseHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel_.store(true, std::memory_order_relaxed);
}

util::Result<query::QueryOutcome> ResponseHandle::Wait() {
  if (state_ == nullptr) {
    return util::Status::Internal("empty response handle");
  }
  std::unique_lock<std::mutex> lock(state_->mu_);
  state_->cv_.wait(lock, [&] { return state_->done_; });
  if (state_->consumed_) {
    return util::Status::Internal("result already consumed");
  }
  state_->consumed_ = true;
  return std::move(state_->result_);
}

DrugTreeServer::DrugTreeServer(query::Catalog* catalog, util::Clock* clock,
                               const ServerOptions& options)
    : catalog_(catalog),
      clock_(clock),
      options_(options),
      trace_store_(options.trace_store_capacity,
                   ResolveSlowQueryMicros(options.slow_query_micros)),
      memory_root_("server", /*parent=*/nullptr,
                   static_cast<int64_t>(
                       options.memory_high_watermark *
                       static_cast<double>(options.server_memory_bytes)),
                   static_cast<int64_t>(options.server_memory_bytes)),
      admission_(options.admission, clock),
      scheduler_(options.scheduler, &admission_) {
  for (int c = 0; c < kNumQueryClasses; ++c) {
    QueryClass qc = static_cast<QueryClass>(c);
    class_trackers_[static_cast<size_t>(c)] =
        memory_root_.GetOrCreateChild(QueryClassName(qc));
    obs::SloOptions slo_opts;
    slo_opts.target_latency_micros = qc == QueryClass::kInteractive
                                         ? options_.interactive_slo_micros
                                         : options_.analytic_slo_micros;
    slo_opts.objective = options_.slo_objective;
    slo_opts.window_micros = options_.slo_window_micros;
    slo_[static_cast<size_t>(c)] = std::make_unique<obs::SloTracker>(
        QueryClassName(qc), slo_opts, clock_);
  }
  // Account the catalog's resident table data up front: what the scans will
  // actually read is what admission should budget against. Encoded tables
  // charge their compressed bytes, plain tables their row-format estimate,
  // so compression directly widens the watermark headroom. Unconditional
  // Charge: resident data is a fact, not a request the server may refuse.
  {
    obs::MemoryTracker* tables = memory_root_.GetOrCreateChild("tables");
    for (const auto& [name, table] : catalog_->tables()) {
      (void)name;
      resident_table_bytes_ +=
          static_cast<int64_t>(table->ApproxScanFootprintBytes());
    }
    if (resident_table_bytes_ > 0) tables->Charge(resident_table_bytes_);
  }
  if (options_.result_cache_bytes > 0) {
    result_cache_ =
        std::make_unique<query::ResultCache>(options_.result_cache_bytes);
    result_cache_->AttachMemoryTracker(
        memory_root_.GetOrCreateChild("result_cache"));
  }
  // Plan cache / calibrator / adaptive controller are always constructed
  // (Statusz shows an all-zero block when a feature is off) but only wired
  // into the planners when enabled.
  plan_cache_ = std::make_unique<query::PlanCache>(options_.plan_cache_entries);
  calibrator_ = std::make_unique<obs::CostCalibrator>();
  adaptive_ = std::make_unique<AdaptiveController>(options_.adaptive);
  int slots = std::max(1, options_.scheduler.total_slots);
  for (int s = 0; s < slots; ++s) {
    planners_.push_back(std::make_unique<query::Planner>(
        catalog_, result_cache_.get(),
        options_.enable_plan_cache ? plan_cache_.get() : nullptr,
        options_.enable_cost_calibration ? calibrator_.get() : nullptr));
    free_slots_.push_back(s);
  }
  auto* registry = obs::MetricRegistry::Default();
  for (int c = 0; c < kNumQueryClasses; ++c) {
    obs::Labels labels = {
        {"class", QueryClassName(static_cast<QueryClass>(c))}};
    // Sharded replicas discriminate their serving counters by shard id so
    // the router's tail attribution can name the slowest shard, not just
    // the slowest phase. Standalone servers keep the historical label set.
    if (!options_.shard_id.empty()) labels["shard"] = options_.shard_id;
    ClassMetrics& m = metrics_[static_cast<size_t>(c)];
    m.latency_ms = registry->GetHistogram("server.latency_ms", labels);
    m.completed = registry->GetCounter("server.requests.completed", labels);
    m.failed = registry->GetCounter("server.requests.failed", labels);
    m.cancelled = registry->GetCounter("server.requests.cancelled", labels);
    m.deadline_missed =
        registry->GetCounter("server.requests.deadline_missed", labels);
  }
  pool_queue_gauge_ = registry->GetGauge("server.pool.queue_depth");
  obs::Labels shard_labels;
  if (!options_.shard_id.empty()) shard_labels["shard"] = options_.shard_id;
  free_slots_gauge_ =
      registry->GetGauge("server.scheduler.free_slots", shard_labels);
  free_slots_gauge_->Set(static_cast<int64_t>(free_slots_.size()));

  if (ResolveTelemetryEnabled(options_.telemetry.enabled)) {
    timeline_ = std::make_unique<obs::TimeSeriesStore>(
        options_.telemetry.timeline_points);
    obs::SamplerOptions sampler_opts;
    sampler_opts.interval_micros = options_.telemetry.sample_interval_micros;
    sampler_opts.registry_prefixes = {"server.", "router."};
    sampler_ = std::make_unique<obs::MetricsSampler>(
        timeline_.get(), registry, clock_, std::move(sampler_opts));
    sampler_->AddProbe("memory.used_bytes", [this] {
      return static_cast<double>(memory_root_.used());
    });
    sampler_->AddProbe("memory.pressure_pct", [this] {
      int64_t soft = memory_root_.soft_limit_bytes();
      if (soft <= 0) return std::nan("");
      return 100.0 * static_cast<double>(memory_root_.used()) /
             static_cast<double>(soft);
    });
    for (int c = 0; c < kNumQueryClasses; ++c) {
      const char* cls = QueryClassName(static_cast<QueryClass>(c));
      const obs::SloTracker* slo = slo_[static_cast<size_t>(c)].get();
      sampler_->AddProbe(util::StringPrintf("slo.%s.burn_rate", cls),
                         [slo] { return slo->GetSnapshot().burn_rate; });
      sampler_->AddProbe(util::StringPrintf("slo.%s.compliance", cls),
                         [slo] { return slo->GetSnapshot().compliance; });
    }
    // Saturation = queued work while zero slots are free. A serialized
    // closed-loop client always completes with its own slot busy but the
    // queue empty, so this reads 0 unless dispatch genuinely starves.
    // Probes run from TelemetryTick, which is never called with mu_ held.
    sampler_->AddProbe("scheduler.starved_depth", [this] {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_slots_.empty()) return 0.0;
      return static_cast<double>(
          admission_.QueueDepth(QueryClass::kInteractive) +
          admission_.QueueDepth(QueryClass::kAnalytic));
    });
    sampler_->AddProbe("plan_cache.hit_rate_pct", [this] {
      query::PlanCache::Stats s = plan_cache_->stats();
      int64_t lookups = s.hits + s.misses;
      if (lookups == 0) return std::nan("");
      return 100.0 * static_cast<double>(s.hits) /
             static_cast<double>(lookups);
    });

    alerts_ = std::make_unique<obs::AlertEngine>(timeline_.get(), clock_);
    int64_t interval = options_.telemetry.sample_interval_micros;
    if (options_.telemetry.default_rules) {
      obs::AlertRule rule;
      rule.name = "memory_pressure";
      rule.kind = obs::AlertKind::kThreshold;
      rule.series = "memory.pressure_pct";
      rule.threshold = 100.0;
      rule.subsystem = "memory";
      alerts_->AddRule(rule);

      rule = obs::AlertRule();
      rule.name = "interactive_burn";
      rule.kind = obs::AlertKind::kBurnRate;
      rule.series = "slo.interactive.burn_rate";
      rule.threshold = 1.0;
      rule.short_window_micros = 2 * interval;
      rule.long_window_micros = 8 * interval;
      rule.subsystem = "serving";
      rule.severity = obs::AlertSeverity::kCritical;
      alerts_->AddRule(rule);

      rule.name = "analytic_burn";
      rule.series = "slo.analytic.burn_rate";
      rule.severity = obs::AlertSeverity::kWarning;
      alerts_->AddRule(rule);

      rule = obs::AlertRule();
      rule.name = "interactive_queue_growth";
      rule.kind = obs::AlertKind::kRateOfChange;
      rule.series = "server.admission.queue_depth{class=interactive}";
      rule.threshold = 50.0;  // sustained +50 queued requests per second
      rule.for_micros = 2 * interval;
      rule.subsystem = "admission";
      alerts_->AddRule(rule);

      rule = obs::AlertRule();
      rule.name = "plan_cache_collapse";
      rule.kind = obs::AlertKind::kRateOfChange;
      rule.series = "plan_cache.hit_rate_pct";
      rule.threshold = -10.0;  // hit rate falling >10 pct-points per second
      rule.fire_above = false;
      rule.for_micros = 2 * interval;
      rule.subsystem = "plan_cache";
      alerts_->AddRule(rule);

      rule = obs::AlertRule();
      rule.name = "scheduler_saturated";
      rule.kind = obs::AlertKind::kThreshold;
      rule.series = "scheduler.starved_depth";
      rule.threshold = 0.5;  // any queued work while zero slots free
      rule.for_micros = 4 * interval;
      rule.subsystem = "scheduler";
      alerts_->AddRule(rule);
    }
    for (const obs::AlertRule& extra : options_.telemetry.extra_rules) {
      alerts_->AddRule(extra);
    }
  }
  pool_ = std::make_unique<util::ThreadPool>(
      std::max(1, options_.worker_threads));
}

DrugTreeServer::~DrugTreeServer() {
  Resume();
  Drain();
}

ResponseHandle DrugTreeServer::SubmitAsync(QueryRequest request) {
  DT_SPAN("server.submit");
  PendingRequest pending;
  pending.request = std::move(request);
  pending.response = std::make_shared<ResponseState>();
  ResponseHandle handle(pending.response);
  QueryClass cls = pending.request.query_class;
  std::shared_ptr<obs::TraceContext> trace;
  int64_t submit_micros = 0;
  if (options_.enable_tracing) {
    submit_micros = clock_->NowMicros();
    trace = std::make_shared<obs::TraceContext>(
        next_trace_id_.fetch_add(1, std::memory_order_relaxed), clock_);
    trace->set_session_id(pending.request.session_id);
    trace->set_query_class(QueryClassName(cls));
    trace->set_sql(pending.request.sql);
    pending.trace = trace;
  }
  util::Status admitted;
  bool memory_shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Memory-pressure admission: once tracked usage crosses the high
    // watermark, analytic work is shed before it can queue — the headroom
    // between watermark and hard limit stays reserved for interactive
    // traffic, which is never memory-shed.
    if (cls == QueryClass::kAnalytic && memory_root_.OverSoftLimit()) {
      admitted = util::Status::ResourceExhausted(util::StringPrintf(
          "analytic admission shed: server memory %lld bytes above high "
          "watermark %lld",
          (long long)memory_root_.used(),
          (long long)memory_root_.soft_limit_bytes()));
      memory_shed = true;
      counters_[static_cast<size_t>(cls)].shed++;
      counters_[static_cast<size_t>(cls)].memory_shed++;
    } else {
      admitted = admission_.Admit(&pending);
      if (admitted.ok()) {
        if (trace != nullptr) {
          // Admission stamps enqueue_micros under mu_; [submit, enqueue] is
          // the admission-control work. Tag it before DispatchLocked can
          // hand the request to a worker.
          trace->AddPhaseInterval(obs::TracePhase::kAdmit, submit_micros,
                                  pending.enqueue_micros);
        }
        counters_[static_cast<size_t>(cls)].admitted++;
        DispatchLocked();
      } else {
        counters_[static_cast<size_t>(cls)].shed++;
      }
    }
  }
  if (!admitted.ok()) {
    // A shed request is an instantly-failed one from the SLO's viewpoint.
    slo_[static_cast<size_t>(cls)]->Record(/*latency_micros=*/0,
                                           /*ok=*/false);
    if (trace != nullptr) {
      trace->AddPhaseInterval(obs::TracePhase::kAdmit, submit_micros,
                              clock_->NowMicros());
      trace_store_.Record(
          trace->Finish(memory_shed ? "shed_memory" : "shed", /*ok=*/false));
    }
    // Tick before Complete() publishes: a serialized virtual-clock client is
    // still blocked in Wait, so the sample lands at a deterministic point.
    TelemetryTick();
    Complete(handle.state_, std::move(admitted));
  }
  return handle;
}

util::Result<query::QueryOutcome> DrugTreeServer::Submit(
    QueryRequest request) {
  return SubmitAsync(std::move(request)).Wait();
}

void DrugTreeServer::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void DrugTreeServer::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  DispatchLocked();
}

void DrugTreeServer::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] {
      return admission_.Empty() && scheduler_.running_total() == 0;
    });
  }
  // A quiesced server still moves the timeline forward (burn rates decay,
  // alerts resolve) when someone drains it after advancing the clock.
  TelemetryTick();
}

bool DrugTreeServer::TelemetryTick() {
  if (sampler_ == nullptr) return false;
  // Off-cadence ticks (the common case — every request completion lands
  // here) bail on a lock-free check before touching telemetry_mu_.
  if (!sampler_->Due()) return false;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  if (!sampler_->SampleIfDue()) return false;
  alerts_->Evaluate();
  overall_health_.store(
      static_cast<int>(
          obs::DeriveHealth(alerts_->Statuses(), HealthBaseline()).overall),
      std::memory_order_relaxed);
  return true;
}

void DrugTreeServer::ForceTelemetrySample() {
  if (sampler_ == nullptr) return;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  sampler_->SampleNow();
  alerts_->Evaluate();
  overall_health_.store(
      static_cast<int>(
          obs::DeriveHealth(alerts_->Statuses(), HealthBaseline()).overall),
      std::memory_order_relaxed);
}

obs::HealthSnapshot DrugTreeServer::HealthSnapshotNow() const {
  return obs::DeriveHealth(
      alerts_ != nullptr ? alerts_->Statuses() : std::vector<obs::AlertStatus>(),
      HealthBaseline());
}

std::string DrugTreeServer::TailAttributionReport() {
  std::vector<obs::TailAttribution> attrs =
      obs::ComputeTailAttribution(trace_store_.Snapshot());
  if (attrs.empty()) return "(no traces recorded)\n";
  auto* registry = obs::MetricRegistry::Default();
  std::string out;
  for (const obs::TailAttribution& a : attrs) {
    registry
        ->GetGauge("server.tail.p99_micros", {{"class", a.query_class}})
        ->Set(a.p99_micros);
    for (int p = 0; p < obs::kNumTracePhases; ++p) {
      registry
          ->GetGauge("server.tail.share_pct",
                     {{"class", a.query_class},
                      {"phase",
                       obs::TracePhaseName(static_cast<obs::TracePhase>(p))}})
          ->Set(std::llround(100.0 * a.share[static_cast<size_t>(p)]));
    }
    out += a.ToString();
    out += "\n";
  }
  return out;
}

DrugTreeServer::ClassCounters DrugTreeServer::counters(QueryClass c) const {
  std::lock_guard<std::mutex> lock(mu_);
  ClassCounters out = counters_[static_cast<size_t>(c)];
  // Shed/admitted are also tracked by admission; keep the authoritative
  // values consistent with the obs counters it bumps. Memory-pressure sheds
  // happen before admission ever sees the request, so they are added on
  // top of the queue-driven sheds.
  out.shed = admission_.shed(c) + out.memory_shed;
  return out;
}

std::string DrugTreeServer::Statusz() {
  // Freshen the timeline (if due) so the snapshot reports current history.
  // Must run before mu_ is taken below: probes read server state.
  TelemetryTick();
  std::string out = util::StringPrintf(
      "{\"shard\":{\"id\":\"%s\",\"role\":\"%s\"},\"memory\":",
      options_.shard_id.c_str(),
      options_.shard_id.empty() ? "standalone" : "replica");
  out += memory_root_.ToJson();
  out += ",\"slo\":{";
  for (int c = 0; c < kNumQueryClasses; ++c) {
    if (c) out += ",";
    out += util::StringPrintf("\"%s\":",
                              QueryClassName(static_cast<QueryClass>(c)));
    out += slo_[static_cast<size_t>(c)]->ToJson();
  }
  out += "}";
  {
    std::lock_guard<std::mutex> lock(mu_);
    out += ",\"admission\":{";
    for (int c = 0; c < kNumQueryClasses; ++c) {
      QueryClass qc = static_cast<QueryClass>(c);
      if (c) out += ",";
      out += util::StringPrintf(
          "\"%s\":{\"queue_depth\":%zu,\"queue_capacity\":%d,"
          "\"admitted\":%lld,\"shed\":%lld}",
          QueryClassName(qc), admission_.QueueDepth(qc),
          options_.admission.queue_capacity(qc),
          (long long)admission_.admitted(qc), (long long)admission_.shed(qc));
    }
    out += util::StringPrintf(
        "},\"scheduler\":{\"total_slots\":%d,\"free_slots\":%zu,"
        "\"running\":%d,\"paused\":%s}",
        std::max(1, options_.scheduler.total_slots), free_slots_.size(),
        scheduler_.running_total(), paused_ ? "true" : "false");
    out += ",\"classes\":{";
    for (int c = 0; c < kNumQueryClasses; ++c) {
      QueryClass qc = static_cast<QueryClass>(c);
      const ClassCounters& cc = counters_[static_cast<size_t>(c)];
      if (c) out += ",";
      out += util::StringPrintf(
          "\"%s\":{\"admitted\":%lld,\"shed\":%lld,\"memory_shed\":%lld,"
          "\"completed\":%lld,\"failed\":%lld,\"memory_aborted\":%lld,"
          "\"cancelled\":%lld,\"deadline_missed\":%lld}",
          QueryClassName(qc), (long long)cc.admitted,
          (long long)(admission_.shed(qc) + cc.memory_shed),
          (long long)cc.memory_shed, (long long)cc.completed,
          (long long)cc.failed, (long long)cc.memory_aborted,
          (long long)cc.cancelled, (long long)cc.deadline_missed);
    }
    out += "}";
  }
  out += ",\"plan_cache\":";
  out += plan_cache_->StatszJson();
  out += ",\"cost_calibrator\":";
  out += calibrator_->StatszJson();
  out += ",\"adaptive\":";
  out += adaptive_->StatszJson();
  out += util::StringPrintf(
      ",\"timeline\":{\"enabled\":%s,\"sample_interval_micros\":%lld,"
      "\"samples\":%lld,\"series\":",
      timeline_ != nullptr ? "true" : "false",
      (long long)options_.telemetry.sample_interval_micros,
      (long long)(sampler_ != nullptr ? sampler_->samples() : 0));
  out += timeline_ != nullptr ? timeline_->SummaryJson() : "[]";
  out += "},\"alerts\":";
  out += alerts_ != nullptr
             ? alerts_->ToJson()
             : "{\"firing\":0,\"rules\":[],\"transitions\":[]}";
  out += ",\"health\":";
  out += HealthSnapshotNow().ToJson();
  out += util::StringPrintf(
      ",\"trace_store\":{\"recorded\":%lld,\"dropped\":%lld,\"slow\":%lld}}",
      (long long)trace_store_.total_recorded(),
      (long long)trace_store_.dropped(), (long long)trace_store_.slow_count());
  return out;
}

void DrugTreeServer::EnableDispatchLog() {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_log_enabled_ = true;
  dispatch_log_.clear();
}

std::vector<uint64_t> DrugTreeServer::TakeDispatchLog() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out = std::move(dispatch_log_);
  dispatch_log_.clear();
  return out;
}

void DrugTreeServer::DispatchLocked() {
  if (paused_) return;
  // Read the pool depth *before* handing new work to the pool: a worker
  // dequeues a just-submitted task at an arbitrary real-time instant, so a
  // post-submit read races — and a raced value sampled into the telemetry
  // timeline breaks bit-determinism for serialized virtual-clock workloads.
  pool_queue_gauge_->Set(static_cast<int64_t>(pool_->QueueDepth()));
  while (!free_slots_.empty()) {
    std::optional<PendingRequest> next = scheduler_.PickNext();
    if (!next.has_value()) break;
    int slot = free_slots_.back();
    free_slots_.pop_back();
    if (dispatch_log_enabled_) {
      dispatch_log_.push_back(next->request.session_id);
    }
    // std::function requires a copyable callable; box the moved request.
    auto boxed = std::make_shared<PendingRequest>(std::move(*next));
    pool_->Submit([this, boxed, slot] { Execute(std::move(*boxed), slot); });
  }
  free_slots_gauge_->Set(static_cast<int64_t>(free_slots_.size()));
}

void DrugTreeServer::Execute(PendingRequest req, int slot) {
  QueryClass cls = req.request.query_class;
  ClassMetrics& m = metrics_[static_cast<size_t>(cls)];
  int64_t deadline = req.request.deadline_micros;
  std::shared_ptr<obs::TraceContext> trace = req.trace;
  util::Result<query::QueryOutcome> result{util::Status::Internal("pending")};
  int64_t end = 0;
  bool deadline_missed = false;
  // Per-query tracker: stack-local, parented into the session node so every
  // charge propagates session -> class -> server. Its hard limit is the
  // per-query budget; its peak is stamped into the trace. Destroyed after
  // the trace is filed, releasing anything the engine left charged.
  obs::MemoryTracker* session_tracker =
      class_trackers_[static_cast<size_t>(cls)]->GetOrCreateChild(
          util::StringPrintf("session-%llu",
                             (unsigned long long)req.request.session_id));
  obs::MemoryTracker query_tracker(
      util::StringPrintf(
          "query-%llu", (unsigned long long)next_query_id_.fetch_add(
                            1, std::memory_order_relaxed)),
      session_tracker, /*soft_limit_bytes=*/0,
      static_cast<int64_t>(options_.query_memory_bytes));
  int64_t cpu_micros = 0;
  {
    obs::ScopedTraceContext installed(trace.get());
    // Inner scope: the server.execute root span closes (and is adopted by
    // the installed context) before Finish() freezes the record below.
    {
      DT_SPAN("server.execute");
      int64_t now = clock_->NowMicros();
      if (trace != nullptr) {
        trace->set_lane(util::StringPrintf("slot-%d", slot));
        trace->AddPhaseInterval(obs::TracePhase::kQueueWait,
                                req.enqueue_micros, now);
      }

      int64_t cpu_start = obs::ThreadCpuMicros();
      bool already_dead = deadline > 0 && now > deadline;
      if (req.response->cancel_.load(std::memory_order_relaxed)) {
        result = util::Status::Cancelled("cancelled before dispatch");
      } else if (already_dead) {
        // Don't waste a slot on work nobody can use anymore.
        result = util::Status::Cancelled("deadline exceeded before dispatch");
      } else {
        // Brown-out fault injection (benches/tests): burn clock time before
        // planning so the request's latency blows its SLO target. A
        // SimulatedClock jumps deterministically; a RealClock sleeps.
        int64_t fault =
            fault_execution_delay_micros_.load(std::memory_order_relaxed);
        if (fault > 0) clock_->AdvanceMicros(fault);
        query::QueryContext context;
        context.clock = clock_;
        context.deadline_micros = deadline;
        context.cancel = &req.response->cancel_;
        context.memory = &query_tracker;
        // Slow-query forensics wants the offender's analyzed plan, and we
        // only know a query was slow after it ran — so collect whenever the
        // slow log is armed.
        context.collect_analyze =
            trace != nullptr && trace_store_.slow_threshold_micros() > 0;
        // Adaptive knob override: parallelism is a result-invariance
        // axis, so retuning it per class changes latency, never answers.
        if (adaptive_->options().enabled) {
          req.request.planner.parallelism = adaptive_->knobs(cls).parallelism;
        }
        result = planners_[static_cast<size_t>(slot)]->Run(
            req.request.sql, req.request.planner, &context);
      }
      cpu_micros = obs::ThreadCpuMicros() - cpu_start;

      end = clock_->NowMicros();
      deadline_missed = deadline > 0 && end > deadline;
      slo_[static_cast<size_t>(cls)]->Record(end - req.enqueue_micros,
                                             result.ok());
      adaptive_->Record(cls, end - req.enqueue_micros);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ClassCounters& c = counters_[static_cast<size_t>(cls)];
        if (result.ok()) {
          ++c.completed;
          m.completed->Increment();
          m.latency_ms->Observe(
              static_cast<double>(end - req.enqueue_micros) / 1000.0);
        } else if (result.status().IsCancelled()) {
          ++c.cancelled;
          m.cancelled->Increment();
          if (deadline_missed) {
            ++c.deadline_missed;
            m.deadline_missed->Increment();
          }
        } else {
          ++c.failed;
          if (result.status().IsResourceExhausted()) ++c.memory_aborted;
          m.failed->Increment();
        }
      }
    }
    if (trace != nullptr) {
      // Serialize = the result-packaging epilogue. Stamp and file the
      // record strictly *before* Complete publishes the result: the waiter
      // may advance a simulated clock the instant it wakes, and a stamp
      // taken after that would make timelines nondeterministic.
      trace->AddPhaseInterval(obs::TracePhase::kSerialize, end,
                              clock_->NowMicros());
      trace->set_peak_memory_bytes(query_tracker.peak());
      trace->set_cpu_micros(cpu_micros);
      std::string status = result.ok() ? "ok"
                           : result.status().IsResourceExhausted()
                               ? "resource_exhausted"
                           : result.status().IsCancelled()
                               ? (deadline_missed ? "deadline" : "cancelled")
                               : result.status().ToString();
      trace_store_.Record(trace->Finish(std::move(status), result.ok()));
    }
  }
  // Same contract as the trace record above: sample before the waiter can
  // wake and advance a simulated clock, so timelines stay bit-deterministic.
  TelemetryTick();
  Complete(req.response, std::move(result));
  {
    std::lock_guard<std::mutex> lock(mu_);
    scheduler_.OnComplete(cls);
    free_slots_.push_back(slot);
    DispatchLocked();
  }
  drain_cv_.notify_all();
}

void DrugTreeServer::Complete(const std::shared_ptr<ResponseState>& state,
                              util::Result<query::QueryOutcome> result) {
  {
    std::lock_guard<std::mutex> lock(state->mu_);
    state->result_ = std::move(result);
    state->done_ = true;
  }
  state->cv_.notify_all();
}

}  // namespace server
}  // namespace drugtree
