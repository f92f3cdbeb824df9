// Continuous telemetry, part 1: metric history.
//
// Every other observability surface (Statusz, registry snapshots, the
// TraceStore) is point-in-time; nothing in the process retains *history*,
// so nobody can compute a rate, watch a burn unfold, or gate a PR on a
// timeline. TimeSeriesStore is that history: a map of named series, each a
// fixed-capacity ring of (t_micros, value) points, cheap enough to keep on
// every server.
//
// MetricsSampler fills the store from the existing sources on the
// provided util::Clock:
//   * registry counters are *differenced into per-second rates*
//     ("<full_name>.rate" series; the first sample seeds, no bogus spike);
//   * registry gauges are recorded verbatim;
//   * registry histograms are sampled as ".p50" / ".p95" / ".p99" series;
//   * arbitrary probes (SloTracker burn rates, MemoryTracker pressure,
//     plan-cache hit rate) are registered as closures returning a double —
//     a NaN return means "no data yet" and skips the point.
//
// Labelled registry metrics fan out naturally: each label combination is
// its own FullName, hence its own series ("server.admission.queue_depth
// {class=interactive,shard=s2r0}"), so per-shard / per-class history falls
// out of the existing label scheme.
//
// Determinism: the sampler never owns a thread. SampleIfDue() is invoked
// from well-defined points (request completion, Drain, Statusz, explicit
// test ticks); on a SimulatedClock with a serialized workload, two runs
// produce bit-identical timelines — which is what lets perf_gate.sh diff
// timelines byte-for-byte against a recorded baseline.

#ifndef DRUGTREE_OBS_TIMESERIES_H_
#define DRUGTREE_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace drugtree {
namespace obs {

struct TimePoint {
  int64_t t_micros = 0;
  double value = 0.0;
};

/// Named series of fixed-capacity rings. Thread-safe (one mutex: writes are
/// sampler-cadence, not hot-path).
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(size_t capacity_per_series = 240);

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Appends one point; evicts the series' oldest point at capacity.
  void Observe(const std::string& series, int64_t t_micros, double value);

  /// The retained points, oldest first. Empty when the series is unknown.
  std::vector<TimePoint> Points(const std::string& series) const;

  /// Latest retained point; false when the series is absent or empty.
  bool Latest(const std::string& series, TimePoint* out) const;

  /// Mean over retained points with t in (now - window_micros, now]; false
  /// when no point falls inside the window.
  bool WindowAverage(const std::string& series, int64_t now_micros,
                     int64_t window_micros, double* out) const;

  size_t num_series() const;
  /// Total points ever observed (including evicted ones).
  int64_t total_points() const;

  /// JSON *array* of per-series summaries (embedded in Statusz "timeline"):
  /// [{"name":...,"points":N,"observed":M,"first_t":...,"last_t":...,
  ///   "last":...,"min":...,"max":...,"mean":...},...]
  std::string SummaryJson() const;

  /// Full dump: {"capacity":N,"series":[{"name":...,"observed":M,
  /// "points":[[t,v],...]},...]} — the perf_gate.sh diff artifact.
  std::string ToJson() const;

  void Clear();

 private:
  struct Ring {
    std::vector<TimePoint> points;  // capacity-bounded, next wraps
    size_t next = 0;
    int64_t observed = 0;
  };

  /// Chronological copy of a ring. Caller holds mu_.
  std::vector<TimePoint> OrderedLocked(const Ring& ring) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Ring> series_;
  int64_t total_points_ = 0;
};

struct SamplerOptions {
  /// Minimum micros between samples (SampleIfDue debounce).
  int64_t interval_micros = 250'000;
  /// Registry metric *name* prefixes to sample (matched against the bare
  /// name, before labels; every label combination of a matching name
  /// becomes its own series). Empty = sample nothing from the registry.
  std::vector<std::string> registry_prefixes;
};

/// Fills a TimeSeriesStore from the metric registry + registered probes.
/// Never owns a thread: callers decide when SampleIfDue()/SampleNow() run.
class MetricsSampler {
 public:
  /// All pointers are borrowed and must outlive the sampler.
  MetricsSampler(TimeSeriesStore* store, MetricRegistry* registry,
                 const util::Clock* clock, SamplerOptions options);

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Registers a scalar probe evaluated at every sample, in registration
  /// order. A NaN return skips the point (no data yet).
  void AddProbe(std::string series, std::function<double()> probe);

  /// Lock-free advisory check: would SampleIfDue() sample now? The serving
  /// hot path calls this before taking any telemetry lock, so an
  /// off-cadence tick costs one relaxed load and a clock read.
  bool Due() const;

  /// Samples when at least interval_micros elapsed since the last sample
  /// (always samples the first call). Returns whether a sample was taken.
  bool SampleIfDue();

  /// Unconditional sample (tests).
  void SampleNow();

  int64_t samples() const;

  const SamplerOptions& options() const { return options_; }

 private:
  /// Caller holds mu_.
  void SampleLocked(int64_t now_micros);

  TimeSeriesStore* const store_;
  MetricRegistry* const registry_;
  const util::Clock* const clock_;
  const SamplerOptions options_;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  std::map<std::string, int64_t> prev_counters_;  // FullName -> last value
  int64_t last_sample_micros_ = -1;
  int64_t samples_ = 0;
  // Mirror of last_sample_micros_ for the lock-free Due() fast path;
  // advisory only — SampleIfDue() re-decides under mu_.
  std::atomic<int64_t> last_sample_relaxed_{-1};
};

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_TIMESERIES_H_
