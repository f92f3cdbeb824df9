#include "obs/trace_context.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace obs {

namespace {

thread_local TraceContext* tls_current = nullptr;

}  // namespace

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kAdmit: return "admit";
    case TracePhase::kQueueWait: return "queue_wait";
    case TracePhase::kPlan: return "plan";
    case TracePhase::kExecute: return "execute";
    case TracePhase::kFetchBlocked: return "fetch_blocked";
    case TracePhase::kSerialize: return "serialize";
    case TracePhase::kRoute: return "route";
    case TracePhase::kGather: return "gather";
  }
  return "unknown";
}

std::string TraceRecord::TimelineString() const {
  std::string out = util::StringPrintf(
      "[trace %llu %s %s session=%llu] total=%.3fms status=%s\n",
      (unsigned long long)trace_id, query_class.c_str(), lane.c_str(),
      (unsigned long long)session_id,
      static_cast<double>(TotalMicros()) / 1000.0, status.c_str());
  for (const auto& iv : intervals) {
    out += util::StringPrintf(
        "  %-13s %8lldus .. %8lldus  (%lldus)\n", TracePhaseName(iv.phase),
        (long long)(iv.start_micros - begin_micros),
        (long long)(iv.end_micros - begin_micros),
        (long long)iv.DurationMicros());
  }
  for (const auto& f : fetches) {
    out += util::StringPrintf(
        "  fetch ch%-2d    %8lldus .. %8lldus  (%llu bytes)\n", f.channel,
        (long long)(f.start_micros - begin_micros),
        (long long)(f.end_micros - begin_micros), (unsigned long long)f.bytes);
  }
  if (peak_memory_bytes > 0 || cpu_micros > 0) {
    out += util::StringPrintf("  resources     peak_mem=%lldB cpu=%lldus\n",
                              (long long)peak_memory_bytes,
                              (long long)cpu_micros);
  }
  for (const auto& [name, value] : counters) {
    out += util::StringPrintf("  #%s=%lld\n", name.c_str(), (long long)value);
  }
  if (!sql.empty()) out += "  sql: " + sql + "\n";
  return out;
}

TraceContext::TraceContext(uint64_t trace_id, const util::Clock* clock)
    : trace_id_(trace_id), clock_(clock), begin_micros_(clock->NowMicros()) {
  record_.trace_id = trace_id;
  record_.begin_micros = begin_micros_;
  open_start_.fill(-1);
}

void TraceContext::set_session_id(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.session_id = id;
}

void TraceContext::set_query_class(std::string query_class) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.query_class = std::move(query_class);
}

void TraceContext::set_lane(std::string lane) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.lane = std::move(lane);
}

void TraceContext::set_sql(std::string sql) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.sql = std::move(sql);
}

void TraceContext::BeginPhase(TracePhase phase) {
  std::lock_guard<std::mutex> lock(mu_);
  open_start_[static_cast<size_t>(phase)] = clock_->NowMicros();
}

void TraceContext::EndPhase(TracePhase phase) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t& start = open_start_[static_cast<size_t>(phase)];
  if (start < 0) return;  // unmatched close
  int64_t end = clock_->NowMicros();
  record_.intervals.push_back({phase, start, end});
  record_.phase_micros[static_cast<size_t>(phase)] += end - start;
  start = -1;
}

void TraceContext::AddPhaseInterval(TracePhase phase, int64_t start_micros,
                                    int64_t end_micros) {
  if (end_micros < start_micros) end_micros = start_micros;
  std::lock_guard<std::mutex> lock(mu_);
  record_.intervals.push_back({phase, start_micros, end_micros});
  record_.phase_micros[static_cast<size_t>(phase)] +=
      end_micros - start_micros;
}

void TraceContext::AddBlockedMicros(TracePhase phase, int64_t micros) {
  if (micros <= 0) return;
  int64_t end = clock_->NowMicros();
  AddPhaseInterval(phase, end - micros, end);
}

void TraceContext::AddFetchEvent(int channel, int64_t start_micros,
                                 int64_t end_micros, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.fetches.push_back({channel, start_micros, end_micros, bytes});
}

void TraceContext::BumpCounter(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.counters[name] += delta;
}

void TraceContext::set_analyzed_plan(std::string analyzed_plan) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.analyzed_plan = std::move(analyzed_plan);
}

void TraceContext::set_peak_memory_bytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.peak_memory_bytes = bytes;
}

void TraceContext::set_cpu_micros(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  record_.cpu_micros = micros;
}

int64_t TraceContext::PhaseMicros(TracePhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_.phase_micros[static_cast<size_t>(phase)];
}

TraceRecord TraceContext::Finish(std::string status, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = clock_->NowMicros();
  for (int p = 0; p < kNumTracePhases; ++p) {
    if (open_start_[static_cast<size_t>(p)] >= 0) {
      record_.intervals.push_back({static_cast<TracePhase>(p),
                                   open_start_[static_cast<size_t>(p)], now});
      record_.phase_micros[static_cast<size_t>(p)] +=
          now - open_start_[static_cast<size_t>(p)];
      open_start_[static_cast<size_t>(p)] = -1;
    }
  }
  record_.end_micros = now;
  record_.status = std::move(status);
  record_.ok = ok;
  // Timeline order, not close order: intervals sorted by start time.
  std::stable_sort(record_.intervals.begin(), record_.intervals.end(),
                   [](const PhaseInterval& a, const PhaseInterval& b) {
                     return a.start_micros < b.start_micros;
                   });
  return std::move(record_);
}

TraceContext* TraceContext::Current() { return tls_current; }

ScopedTraceContext::ScopedTraceContext(TraceContext* context)
    : prev_(tls_current) {
  tls_current = context;
}

ScopedTraceContext::~ScopedTraceContext() { tls_current = prev_; }

}  // namespace obs
}  // namespace drugtree
