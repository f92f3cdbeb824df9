// Simulated wide-area network. Every remote-source request is charged
// request latency plus payload transfer time against a Clock — a
// SimulatedClock in benchmarks (fast, deterministic) or a RealClock in the
// interactive examples. This stands in for the web round trips the real
// DrugTree paid to its protein/ligand databases.
//
// The link has `max_concurrency` channels. Requests are scheduled onto the
// earliest-free channel in *virtual* time: SubmitRequest records when the
// response will be ready (completion-time bookkeeping) without advancing
// the clock; WaitUntil advances the clock to a completion. Latencies of
// concurrent requests overlap; transfers share link bandwidth (a transfer
// that starts while k channels are busy runs at bandwidth/k). At
// max_concurrency = 1 every request waits for the one before it, the
// historical serial model.
//
// Every federated fetch is scheduled: it returns a Deferred (payload plus
// ready time). A caller that needs the payload now blocks through Await; a
// caller that overlaps fetches runs them through a FetchWindow as wide as
// the link's channels, so one channel is the serial path.

#ifndef DRUGTREE_INTEGRATION_NETWORK_H_
#define DRUGTREE_INTEGRATION_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <queue>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {

/// Link parameters, roughly a 2013-era broadband path to a public database.
struct NetworkParams {
  int64_t latency_micros = 50'000;          // one-way-ish request overhead
  int64_t bandwidth_bytes_per_sec = 1'000'000;
  double jitter_fraction = 0.1;             // +- uniform jitter on latency
  /// Probability a request times out (failure injection). A failed request
  /// costs timeout_micros and transfers nothing; sources retry.
  double failure_probability = 0.0;
  int64_t timeout_micros = 2'000'000;
  /// In-flight request channels. 1 = the historical serial link; >1 lets
  /// request latencies overlap while transfers share bandwidth.
  int max_concurrency = 1;
};

/// Charges simulated time for requests and transfers; accumulates counters.
/// Scheduling state (channels, rng, params) is mutex-protected and the
/// counters are atomics, so concurrent callers — thread-pool morsel workers,
/// an overlapping prefetcher — are race-free.
class SimulatedNetwork {
 public:
  SimulatedNetwork(util::Clock* clock, NetworkParams params, uint64_t seed = 7)
      : clock_(clock), params_(params), rng_(seed) {}

  /// Registry counters mirrored by every instance (pointers cached once;
  /// bumping is two relaxed atomic adds per request).
  struct Metrics {
    obs::Counter* requests;
    obs::Counter* bytes;
    obs::Counter* failures;
    obs::Counter* busy_micros;
    obs::Counter* queue_wait_micros;
    obs::Gauge* in_flight;
  };

  /// Outcome of scheduling one (reliable) request.
  struct Completion {
    int64_t ready_micros = 0;    // absolute virtual time the response lands
    int64_t charged_micros = 0;  // link busy time charged, retries included
  };

  /// Schedules one request carrying `payload_bytes` of response data onto
  /// the earliest-free channel WITHOUT advancing the clock. With failure
  /// injection enabled this is the reliable path (failed attempts charge
  /// timeout_micros on the same channel until one succeeds).
  Completion SubmitRequest(uint64_t payload_bytes);

  /// Advances the clock to `ready_micros` (no-op if the clock is already
  /// past it).
  void WaitUntil(int64_t ready_micros);

  /// Blocking request: SubmitRequest + WaitUntil under one lock hold, so
  /// no other caller's request lands between the two. Returns the
  /// microseconds charged.
  int64_t Request(uint64_t payload_bytes);

  /// Cost of one attempt alone on the link, without jitter and without
  /// advancing time (the shard router prices its hops with it).
  int64_t EstimateMicros(uint64_t payload_bytes) const;

  uint64_t num_requests() const {
    return num_requests_.load(std::memory_order_relaxed);
  }
  uint64_t num_failures() const {
    return num_failures_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_transferred() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  int64_t busy_micros() const {
    return busy_micros_.load(std::memory_order_relaxed);
  }

  NetworkParams params() const {
    std::lock_guard<std::mutex> lock(mu_);
    return params_;
  }
  void set_params(const NetworkParams& p) {
    std::lock_guard<std::mutex> lock(mu_);
    params_ = p;
    channels_.clear();  // re-sized lazily to the new max_concurrency
  }

  util::Clock* clock() { return clock_; }

 private:
  static const Metrics& SharedMetrics();

  /// Latency plus the transfer of `payload_bytes` while `busy` channels
  /// share the bandwidth: one successful attempt before jitter.
  static int64_t BaseMicros(const NetworkParams& params,
                            uint64_t payload_bytes, int busy);

  /// Schedules one reliable request; assumes mu_ is held.
  Completion SubmitLocked(uint64_t payload_bytes);

  /// Advances the clock to `ready_micros` if it lies ahead; assumes mu_ is
  /// held.
  void WaitLocked(int64_t ready_micros);

  util::Clock* clock_;
  mutable std::mutex mu_;        // guards params_, rng_, channels_
  NetworkParams params_;
  util::Rng rng_;
  std::vector<int64_t> channels_;  // per-channel free-at time (virtual)
  std::atomic<uint64_t> num_requests_{0};
  std::atomic<uint64_t> num_failures_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<int64_t> busy_micros_{0};
};

/// A fetch whose response payload is known at submit time (the data is
/// simulated) but whose network completion lies in the virtual future.
/// `ready_micros` is the absolute virtual time the response lands; 0 when
/// no request was made (a cache hit, or a source without a link). A failed
/// lookup carries its error in `value` and still lands at `ready_micros`:
/// error responses cost a round trip too.
template <typename T>
struct Deferred {
  T value;
  int64_t ready_micros = 0;
};

/// Blocks (in virtual time) until `fetch` has landed and returns its
/// payload: the one way to wait on a single fetch. `network` may be null
/// (nothing to wait for).
template <typename T>
T Await(SimulatedNetwork* network, Deferred<T> fetch) {
  if (network != nullptr) network->WaitUntil(fetch.ready_micros);
  return std::move(fetch.value);
}

/// Bounded in-flight window over scheduled fetches, the mediator's
/// per-record batching primitive. Callers Acquire() a slot before
/// submitting (which, when the window is full, waits — in virtual time —
/// for the earliest outstanding completion), then Track() the new
/// completion, and Drain() once the batch is issued. A window of 1 waits
/// for each fetch before submitting the next: the serial path.
class FetchWindow {
 public:
  /// `network` may be null (no virtual-time accounting; everything is
  /// immediately complete).
  FetchWindow(SimulatedNetwork* network, int window)
      : network_(network), window_(window < 1 ? 1 : window) {}

  /// Blocks (virtually) until fewer than `window` submissions are
  /// outstanding.
  void Acquire() {
    Prune();
    while (static_cast<int>(outstanding_.size()) >= window_) {
      int64_t earliest = outstanding_.top();
      outstanding_.pop();
      if (network_ != nullptr) network_->WaitUntil(earliest);
      Prune();
    }
  }

  /// Records a submission's completion time. One the clock has already
  /// passed (a cache hit made no request) is not outstanding.
  void Track(int64_t ready_micros) {
    if (network_ == nullptr ||
        ready_micros <= network_->clock()->NowMicros()) {
      return;
    }
    outstanding_.push(ready_micros);
    ++submissions_;
    int depth = static_cast<int>(outstanding_.size());
    if (depth > peak_in_flight_) peak_in_flight_ = depth;
  }

  /// Waits for every outstanding completion.
  void Drain() {
    int64_t last = 0;
    while (!outstanding_.empty()) {
      last = outstanding_.top();
      outstanding_.pop();
    }
    if (network_ != nullptr && last > 0) network_->WaitUntil(last);
  }

  /// High-water mark of simultaneously outstanding submissions (what the
  /// bounded-window tests assert on).
  int peak_in_flight() const { return peak_in_flight_; }

  /// Completions tracked as outstanding: the requests this window issued.
  uint64_t submissions() const { return submissions_; }

 private:
  /// Drops completions the clock has already passed.
  void Prune() {
    if (network_ == nullptr) return;
    int64_t now = network_->clock()->NowMicros();
    while (!outstanding_.empty() && outstanding_.top() <= now) {
      outstanding_.pop();
    }
  }

  SimulatedNetwork* network_;
  int window_;
  int peak_in_flight_ = 0;
  uint64_t submissions_ = 0;
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>>
      outstanding_;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_NETWORK_H_
