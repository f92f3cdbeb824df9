// Per-query request tracing: a TraceContext travels with one served request
// (or one mobile interaction) through every layer it touches — admission,
// queueing, dispatch, planning, operator execution, simulated-network fetches,
// and result serialization — and records a *phase timeline* stamped off
// util::Clock, so virtual-clock tests and benches get exact, deterministic
// attribution of where the request's time went.
//
// Propagation is thread-local: the layer that owns the request installs the
// context with ScopedTraceContext, and any instrumented code below it (the
// planner's phase scopes, SimulatedNetwork's blocked-time accounting, cache
// annotations) tags `TraceContext::Current()` without new plumbing through
// every call signature. A context handed across threads (submit thread ->
// worker) is internally mutex-guarded, so the handoff and concurrent
// annotations are race-free.
//
// Completed contexts are finalized into value-type TraceRecords and collected
// by obs::TraceStore (see trace_store.h) for slow-query forensics, Chrome
// trace export, and tail-latency attribution.

#ifndef DRUGTREE_OBS_TRACE_CONTEXT_H_
#define DRUGTREE_OBS_TRACE_CONTEXT_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace drugtree {
namespace obs {

/// The named phases one request moves through. kFetchBlocked is special: it
/// is accumulated *inside* kExecute (time the executing request spent blocked
/// on the simulated link), so attribution reports subtract it from execute to
/// get on-CPU operator time.
enum class TracePhase : int {
  kAdmit = 0,        // Submit -> admitted (admission-control work)
  kQueueWait = 1,    // admitted -> dispatched onto a slot
  kPlan = 2,         // parse + optimize + physical planning
  kExecute = 3,      // operator-tree execution (includes fetch_blocked)
  kFetchBlocked = 4, // blocked on SimulatedNetwork completions
  kSerialize = 5,    // result packaging / response completion
  kRoute = 6,        // shard router: parse + routing decision
  kGather = 7,       // shard router: scatter hops + partial-result waits
};

inline constexpr int kNumTracePhases = 8;

const char* TracePhaseName(TracePhase phase);

/// One contiguous phase interval on the request's clock.
struct PhaseInterval {
  TracePhase phase = TracePhase::kAdmit;
  int64_t start_micros = 0;
  int64_t end_micros = 0;

  int64_t DurationMicros() const { return end_micros - start_micros; }
};

/// One simulated-network request attributed to this trace: which link
/// channel carried it and the [submit, ready) window it occupied. Rendered
/// as its own lane in the Chrome trace export.
struct FetchEvent {
  int channel = 0;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  uint64_t bytes = 0;
};

/// The finalized, value-type outcome of one traced request. Everything the
/// forensics pipeline needs survives here after the context is gone.
struct TraceRecord {
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  /// Attribution class, e.g. "interactive" / "analytic" / "mobile".
  std::string query_class;
  /// Export lane, e.g. "slot-2" (server slot) or "session-7".
  std::string lane;
  std::string sql;
  /// Terminal status: "ok", "cancelled", "shed", or an error string.
  std::string status;
  bool ok = false;
  /// Marked by the TraceStore when total latency crossed its threshold.
  bool slow = false;
  int64_t begin_micros = 0;
  int64_t end_micros = 0;
  std::array<int64_t, kNumTracePhases> phase_micros{};
  std::vector<PhaseInterval> intervals;
  std::vector<FetchEvent> fetches;
  std::map<std::string, int64_t> counters;  // cache hits, retries, ...
  /// Peak bytes held by the request's MemoryTracker over its lifetime
  /// (deterministic on a virtual-clock workload: charges are byte counts,
  /// not times). 0 when the server ran without resource accounting.
  int64_t peak_memory_bytes = 0;
  /// Thread CPU time consumed executing the request, in micros. Real time
  /// (CLOCK_THREAD_CPUTIME_ID), so forensics can tell a heavy query from a
  /// queued one — never asserted on in deterministic tests.
  int64_t cpu_micros = 0;
  /// EXPLAIN ANALYZE of the executed plan; only captured when the owner ran
  /// with analyze collection on (the slow-query forensics path).
  std::string analyzed_plan;

  int64_t TotalMicros() const { return end_micros - begin_micros; }
  int64_t PhaseMicros(TracePhase phase) const {
    return phase_micros[static_cast<size_t>(phase)];
  }

  /// The full phase timeline, one interval per line — what the slow-query
  /// log dumps:
  ///   [trace 17 interactive slot-0] total=12.40ms status=ok
  ///     queue_wait   0us .. 10000us  (10000us)
  ///     ...
  std::string TimelineString() const;
};

class TraceContext {
 public:
  /// `clock` is borrowed and must outlive the context; it stamps every
  /// phase boundary (SimulatedClock -> deterministic timelines).
  TraceContext(uint64_t trace_id, const util::Clock* clock);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  const util::Clock* clock() const { return clock_; }

  // Identity labels (set once by the owning layer, before concurrent use).
  void set_session_id(uint64_t id);
  void set_query_class(std::string query_class);
  void set_lane(std::string lane);
  void set_sql(std::string sql);

  /// Opens `phase` at the clock's current time. Phases may not overlap
  /// themselves but may nest logically (kFetchBlocked accrues inside
  /// kExecute via AddBlockedMicros, not Begin/End).
  void BeginPhase(TracePhase phase);

  /// Closes the most recent open interval of `phase` at the current time.
  /// A close without a matching open is ignored (defensive).
  void EndPhase(TracePhase phase);

  /// Records an explicit interval (used when the boundary stamps were taken
  /// elsewhere, e.g. admission's enqueue time under the server mutex).
  void AddPhaseInterval(TracePhase phase, int64_t start_micros,
                        int64_t end_micros);

  /// Attributes `micros` of blocked time ending now to `phase` — what the
  /// simulated network calls when it advances the clock to a completion.
  void AddBlockedMicros(TracePhase phase, int64_t micros);

  /// Records one simulated-network request occupying `channel` over
  /// [start, ready).
  void AddFetchEvent(int channel, int64_t start_micros, int64_t end_micros,
                     uint64_t bytes);

  /// Adds `delta` to the named per-trace counter (cache hits, retries, ...).
  void BumpCounter(const std::string& name, int64_t delta = 1);

  /// Stores the EXPLAIN ANALYZE text of the executed plan.
  void set_analyzed_plan(std::string analyzed_plan);

  /// Resource accounting stamped by the serving layer at completion.
  void set_peak_memory_bytes(int64_t bytes);
  void set_cpu_micros(int64_t micros);

  /// Total micros attributed to `phase` so far.
  int64_t PhaseMicros(TracePhase phase) const;

  /// Closes any still-open intervals and freezes everything into a record.
  /// `status` is the terminal status string; `ok` marks success.
  TraceRecord Finish(std::string status, bool ok);

  // Thread-local propagation ---------------------------------------------

  /// The context installed on this thread (null when untraced).
  static TraceContext* Current();

 private:
  friend class ScopedTraceContext;

  const uint64_t trace_id_;
  const util::Clock* clock_;
  const int64_t begin_micros_;

  mutable std::mutex mu_;
  TraceRecord record_;  // labels + accumulated state, finalized by Finish
  std::array<int64_t, kNumTracePhases> open_start_{};  // -1 = not open
};

/// RAII installer: makes `context` the thread's current trace context for
/// the enclosing scope (restoring the previous one on exit, so nested
/// traced scopes compose).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext* context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII phase scope on the *current* context: opens `phase` if a context is
/// installed, closes it on exit. Free when no context is installed (one
/// thread-local read).
class TracePhaseScope {
 public:
  explicit TracePhaseScope(TracePhase phase)
      : context_(TraceContext::Current()), phase_(phase) {
    if (context_ != nullptr) context_->BeginPhase(phase_);
  }
  ~TracePhaseScope() {
    if (context_ != nullptr) context_->EndPhase(phase_);
  }

  TracePhaseScope(const TracePhaseScope&) = delete;
  TracePhaseScope& operator=(const TracePhaseScope&) = delete;

 private:
  TraceContext* context_;
  TracePhase phase_;
};

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_TRACE_CONTEXT_H_
