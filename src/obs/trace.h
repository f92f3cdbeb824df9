// Scoped span timing for per-phase attribution.
//
// Spans are stamped off a util::Clock, so a benchmark driving a
// SimulatedClock gets *exact* attribution of simulated time (network waits,
// render budgets) while interactive runs measure wall time. Every span adds
// its duration to the metrics registry as span.<name>.total_micros and
// span.<name>.count, so bench snapshots carry per-phase totals; a span nested
// in another adds its own full duration to its own pair. Per-request
// timelines come from obs::TraceContext (trace_context.h).
//
// Usage — instrument a scope with the macro (compiled out entirely under
// -DDRUGTREE_OBS_NOOP for overhead A/B builds):
//
//   util::Result<QueryResult> ExecutePlan(PhysicalOperator* root) {
//     DT_SPAN("query.execute");
//     ...
//   }
//
//   obs::Tracer::Default()->set_clock(&simulated_clock);  // in benches

#ifndef DRUGTREE_OBS_TRACE_H_
#define DRUGTREE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/clock.h"

namespace drugtree {
namespace obs {

/// Per-call-site span counters, resolved in the registry once. DT_SPAN
/// declares one function-local static per site, so closing a span bumps two
/// counters directly instead of hashing the name into the registry on every
/// call.
class SpanSite {
 public:
  explicit SpanSite(const char* name);

  Counter* total_micros() const { return total_micros_; }
  Counter* count() const { return count_; }

 private:
  Counter* total_micros_;
  Counter* count_;
};

class Tracer {
 public:
  /// Shared process-wide instance (what DT_SPAN uses).
  static Tracer* Default();

  /// The clock spans are stamped off. Defaults to RealClock::Instance();
  /// simulated-clock benchmarks point it at their clock for exact
  /// attribution. Not owned.
  void set_clock(const util::Clock* clock);
  const util::Clock* clock() const;

 private:
  std::atomic<const util::Clock*> clock_{nullptr};  // null -> RealClock
};

/// RAII span: stamps its start on construction and adds the elapsed time
/// and one count to its site's counters on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(const Tracer* tracer, const SpanSite& site)
      : tracer_(tracer),
        site_(site),
        start_micros_(tracer->clock()->NowMicros()) {}

  ~ScopedSpan() {
    site_.total_micros()->Add(tracer_->clock()->NowMicros() - start_micros_);
    site_.count()->Increment();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const Tracer* tracer_;
  const SpanSite& site_;
  int64_t start_micros_;
};

}  // namespace obs
}  // namespace drugtree

#if defined(DRUGTREE_OBS_NOOP)
// Overhead-measurement build: spans vanish entirely.
#define DT_SPAN(name) \
  do {                \
  } while (0)
#else
#define DT_SPAN_CONCAT2(a, b) a##b
#define DT_SPAN_CONCAT(a, b) DT_SPAN_CONCAT2(a, b)
#define DT_SPAN(name)                                                        \
  static const ::drugtree::obs::SpanSite DT_SPAN_CONCAT(_dt_span_site_,      \
                                                        __LINE__){(name)};   \
  ::drugtree::obs::ScopedSpan DT_SPAN_CONCAT(_dt_span_, __LINE__)(           \
      ::drugtree::obs::Tracer::Default(),                                    \
      DT_SPAN_CONCAT(_dt_span_site_, __LINE__))
#endif

#endif  // DRUGTREE_OBS_TRACE_H_
