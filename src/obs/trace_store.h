// TraceStore: the bounded, lock-sharded ring buffer completed TraceRecords
// land in, plus the forensics pipeline that consumes it:
//
//   * slow-query log — records whose total latency crossed the configured
//     threshold are retained separately (full phase timeline + the
//     offender's EXPLAIN ANALYZE) and logged at WARNING;
//   * Chrome trace-event export — the whole store rendered as a
//     chrome://tracing / Perfetto-loadable JSON, one lane per server slot /
//     session and one lane per simulated-network channel;
//   * tail attribution — per query class, the p99 total latency and the
//     average share each phase contributed among the tail requests
//     ("p99 = 71% queue_wait / 22% fetch_blocked / ...").
//
// Sharding: records hash by trace id onto kShards independent rings, each
// with its own mutex, so concurrent server slots never contend on one lock.
// Capacity is fixed at construction; once a shard's ring is full the oldest
// record in that shard is overwritten (dropped() counts the overwrites).

#ifndef DRUGTREE_OBS_TRACE_STORE_H_
#define DRUGTREE_OBS_TRACE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_context.h"

namespace drugtree {
namespace obs {

/// Per-class tail-latency attribution over a set of trace records. Phase
/// shares are averages over the tail (records with total >= p99), computed
/// on execute time *net of* fetch-blocked time, with any unattributed
/// remainder (dispatch gaps) reported separately — so the shares sum to 1.
struct TailAttribution {
  std::string query_class;
  int64_t count = 0;       // records of this class
  int64_t tail_count = 0;  // records at or above the p99
  int64_t p50_micros = 0;
  int64_t p99_micros = 0;
  /// Average share of tail latency per phase (kExecute net of
  /// kFetchBlocked); indexed by TracePhase.
  std::array<double, kNumTracePhases> share{};
  /// Share of tail latency not covered by any recorded phase.
  double other_share = 0.0;

  /// "interactive p99=12.40ms (n=3/300): 71% queue_wait / 22% fetch_blocked
  ///  / 5% execute / 2% other"
  std::string ToString() const;
};

class TraceStore {
 public:
  /// `capacity` bounds retained records across all shards;
  /// `slow_threshold_micros` > 0 enables the slow-query log.
  explicit TraceStore(size_t capacity = 4096,
                      int64_t slow_threshold_micros = 0);

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Threshold a completed request must reach (total micros) to be treated
  /// as a slow-query offender. 0 disables slow-query capture.
  int64_t slow_threshold_micros() const { return slow_threshold_micros_; }

  /// Files a completed record. Marks it slow (and retains it in the
  /// slow-query log, logging a WARNING with the full timeline) when its
  /// total crosses the threshold.
  void Record(TraceRecord record);

  /// Copies every retained record, sorted by begin time then trace id.
  std::vector<TraceRecord> Snapshot() const;

  /// The retained slow-query offenders, sorted by begin time then trace id
  /// (bounded; oldest-filed evicted beyond kSlowLogCapacity).
  std::vector<TraceRecord> SlowQueries() const;

  int64_t total_recorded() const {
    return total_recorded_.load(std::memory_order_relaxed);
  }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  int64_t slow_count() const {
    return slow_count_.load(std::memory_order_relaxed);
  }

  void Clear();

 private:
  static constexpr size_t kShards = 8;
  static constexpr size_t kSlowLogCapacity = 128;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<TraceRecord> ring;  // capacity-bounded, next_slot wraps
    size_t next_slot = 0;
  };

  size_t per_shard_capacity_;
  const int64_t slow_threshold_micros_;
  std::array<Shard, kShards> shards_;
  std::atomic<int64_t> total_recorded_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> slow_count_{0};

  mutable std::mutex slow_mu_;
  std::deque<TraceRecord> slow_log_;
};

/// A point-in-time marker rendered as a Chrome-trace instant event
/// ("ph":"i") on its own named lane — alert firings/resolutions, config
/// flips, anything without a duration. Lanes share the tid namespace with
/// record lanes, so "s0r0/alerts" sorts next to "s0r0/slot-0".
struct TraceInstant {
  std::string name;
  std::string lane;
  int64_t ts_micros = 0;
  /// Optional pre-rendered JSON object for "args" (empty = "{}").
  std::string args_json;
};

/// Renders trace records as a Chrome trace-event JSON object
/// ({"traceEvents":[...]}) loadable in chrome://tracing or Perfetto. Each
/// distinct record lane ("slot-0", "session-7") becomes one named thread
/// row of complete ("ph":"X") phase events; fetch events render on one
/// additional lane per network channel ("net-ch0", ...); `instants` render
/// as "ph":"i" markers on their own lanes.
std::string ExportChromeTrace(const std::vector<TraceRecord>& records,
                              const std::vector<TraceInstant>& instants);
std::string ExportChromeTrace(const std::vector<TraceRecord>& records);

/// Per-class tail attribution over `records` (classes sorted by name).
/// Classes with no completed records are omitted.
std::vector<TailAttribution> ComputeTailAttribution(
    const std::vector<TraceRecord>& records);

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_TRACE_STORE_H_
