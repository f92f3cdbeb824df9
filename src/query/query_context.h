// QueryContext: the per-request execution context that makes deadlines and
// cancellation real rather than advisory. The serving layer (src/server/)
// attaches one to every dispatched request; physical operators cooperatively
// check it at morsel boundaries and abort with StatusCode::kCancelled.
//
// The context is plain data borrowed for the duration of one execution: the
// clock and cancel flag outlive the query (the server owns both). A
// default-constructed context never cancels, so unserved callers (tests,
// examples, direct Planner::Run) pay nothing.

#ifndef DRUGTREE_QUERY_QUERY_CONTEXT_H_
#define DRUGTREE_QUERY_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "util/clock.h"
#include "util/status.h"

namespace drugtree {
namespace obs {
class MemoryTracker;
}  // namespace obs
namespace query {

struct QueryContext {
  /// Clock the deadline is measured on (the server's clock). Null disables
  /// deadline enforcement.
  const util::Clock* clock = nullptr;
  /// Absolute deadline in clock micros; 0 = no deadline.
  int64_t deadline_micros = 0;
  /// Cooperative cancellation flag (set by ResponseHandle::Cancel or the
  /// dispatcher). Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// When set, the planner enables per-operator analyze instrumentation even
  /// for plain (non-EXPLAIN) queries and publishes the rendered tree to the
  /// active obs::TraceContext, so slow-query forensics can show the plan of
  /// an offender after the fact. Adds two clock reads per operator call.
  bool collect_analyze = false;
  /// Per-query memory tracker (a transient node parented under the server
  /// hierarchy). Operators charge materialized state and the executor its
  /// result buffer against it; a hard-limit breach aborts the query with
  /// kResourceExhausted at the offending allocation instead of OOMing.
  /// Null = no resource accounting (the default for unserved callers).
  obs::MemoryTracker* memory = nullptr;

  bool has_deadline() const { return clock != nullptr && deadline_micros > 0; }

  /// OK while the query may keep running; kCancelled once the flag is set
  /// or the deadline has passed. Cheap enough for per-morsel checks: one
  /// relaxed load plus (with a deadline) one clock read.
  util::Status Check() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return util::Status::Cancelled("query cancelled");
    }
    if (has_deadline() && clock->NowMicros() > deadline_micros) {
      return util::Status::Cancelled("deadline exceeded");
    }
    return util::Status::OK();
  }
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_QUERY_CONTEXT_H_
