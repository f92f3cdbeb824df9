// QueryRequest: the unit of work the multi-session serving layer admits,
// schedules, and executes. A request names who is asking (session id), what
// to run (SQL + planner knobs), how it should be treated (class, priority),
// and by when it is still worth running (absolute deadline on the server's
// util::Clock).
//
// Query classes reproduce the poster's two traffic shapes: kInteractive is
// the mobile viewport/overlay path (small, latency-critical, shed early
// under overload), kAnalytic is the full-tree scan path (large,
// throughput-oriented, must not be starved by interactive bursts).

#ifndef DRUGTREE_SERVER_REQUEST_H_
#define DRUGTREE_SERVER_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace_context.h"
#include "query/planner.h"

namespace drugtree {
namespace server {

enum class QueryClass : int {
  kInteractive = 0,  // mobile viewport / overlay actions
  kAnalytic = 1,     // full-tree scans, reports
};

inline constexpr int kNumQueryClasses = 2;

inline const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kInteractive: return "interactive";
    case QueryClass::kAnalytic: return "analytic";
  }
  return "unknown";
}

struct QueryRequest {
  /// Originating session (mobile device, analyst shell, load generator).
  uint64_t session_id = 0;
  /// The statement to run.
  std::string sql;
  QueryClass query_class = QueryClass::kInteractive;
  /// Within-class dispatch preference: higher runs first, before the
  /// deadline tiebreak.
  int priority = 0;
  /// Absolute deadline in the server clock's micros; 0 = no deadline. Once
  /// passed, the request is cancelled cooperatively (kCancelled) — before
  /// dispatch if it is still queued, at the next operator checkpoint if it
  /// is mid-scan.
  int64_t deadline_micros = 0;
  /// Per-request planner knobs (optimizer toggles, result-cache opt-in,
  /// morsel parallelism).
  query::PlannerOptions planner;
};

class ResponseState;  // server-internal; carried opaquely through the queues

/// A request inside the serving pipeline: the payload plus admission
/// bookkeeping (when it arrived and in what order).
struct PendingRequest {
  QueryRequest request;
  int64_t enqueue_micros = 0;
  uint64_t seq = 0;  // admission order; the final dispatch tiebreak
  std::shared_ptr<ResponseState> response;
  /// Per-request trace carried through the pipeline. Shared: the submit
  /// thread and the executing worker both annotate it; TraceContext is
  /// internally locked.
  std::shared_ptr<obs::TraceContext> trace;
};

}  // namespace server
}  // namespace drugtree

#endif  // DRUGTREE_SERVER_REQUEST_H_
