#include "integration/network.h"

#include <algorithm>

#include "obs/trace_context.h"
#include "util/logging.h"

namespace drugtree {
namespace integration {

const SimulatedNetwork::Metrics& SimulatedNetwork::SharedMetrics() {
  static const Metrics metrics = [] {
    auto* registry = obs::MetricRegistry::Default();
    return Metrics{registry->GetCounter("network.requests"),
                   registry->GetCounter("network.bytes"),
                   registry->GetCounter("network.failures"),
                   registry->GetCounter("network.busy_micros"),
                   registry->GetCounter("network.queue_wait_micros"),
                   registry->GetGauge("network.in_flight")};
  }();
  return metrics;
}

int64_t SimulatedNetwork::BaseMicros(const NetworkParams& params,
                                     uint64_t payload_bytes, int busy) {
  int64_t transfer =
      params.bandwidth_bytes_per_sec > 0
          ? static_cast<int64_t>(
                payload_bytes * 1'000'000 * static_cast<uint64_t>(busy) /
                static_cast<uint64_t>(params.bandwidth_bytes_per_sec))
          : 0;
  return params.latency_micros + transfer;
}

int64_t SimulatedNetwork::EstimateMicros(uint64_t payload_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BaseMicros(params_, payload_bytes, /*busy=*/1);
}

SimulatedNetwork::Completion SimulatedNetwork::SubmitLocked(
    uint64_t payload_bytes) {
  const Metrics& metrics = SharedMetrics();
  if (channels_.empty()) {
    channels_.assign(static_cast<size_t>(std::max(1, params_.max_concurrency)),
                     0);
  }
  int64_t now = clock_->NowMicros();

  // Earliest-free channel; ties broken by index for determinism.
  size_t chosen = 0;
  for (size_t c = 1; c < channels_.size(); ++c) {
    if (channels_[c] < channels_[chosen]) chosen = c;
  }
  int64_t start = std::max(now, channels_[chosen]);

  // Link sharing: a transfer starting while other channels are still busy
  // gets an equal share of the bandwidth.
  int busy = 1;
  for (size_t c = 0; c < channels_.size(); ++c) {
    if (c != chosen && channels_[c] > start) ++busy;
  }
  metrics.queue_wait_micros->Add(start - now);
  metrics.in_flight->Set(busy);

  // Reliable delivery: retry (charging timeout_micros each time) until one
  // attempt succeeds. The bound guards against failure_probability = 1 —
  // after the cap the attempt is treated as delivered so callers make
  // progress rather than spinning forever.
  constexpr int kMaxAttempts = 1000;
  int64_t total = 0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    num_requests_.fetch_add(1, std::memory_order_relaxed);
    metrics.requests->Increment();
    if (params_.failure_probability > 0 &&
        rng_.Bernoulli(params_.failure_probability)) {
      num_failures_.fetch_add(1, std::memory_order_relaxed);
      metrics.failures->Increment();
      total += params_.timeout_micros;
      busy_micros_.fetch_add(params_.timeout_micros,
                             std::memory_order_relaxed);
      metrics.busy_micros->Add(params_.timeout_micros);
      DT_LOG(DEBUG) << "request timed out (" << payload_bytes << " bytes, "
                    << params_.timeout_micros << "us charged)";
      continue;
    }
    int64_t base = BaseMicros(params_, payload_bytes, busy);
    int64_t jitter = 0;
    if (params_.jitter_fraction > 0) {
      double j = rng_.UniformDouble(-params_.jitter_fraction,
                                    params_.jitter_fraction);
      jitter = static_cast<int64_t>(params_.latency_micros * j);
    }
    int64_t cost = std::max<int64_t>(0, base + jitter);
    total += cost;
    bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    busy_micros_.fetch_add(cost, std::memory_order_relaxed);
    metrics.bytes->Add(static_cast<int64_t>(payload_bytes));
    metrics.busy_micros->Add(cost);
    break;
  }
  channels_[chosen] = start + total;
  // Per-query attribution: tag the requesting thread's trace (if any) with
  // the channel occupancy window so the Chrome export can draw one lane per
  // link channel.
  if (obs::TraceContext* trace = obs::TraceContext::Current()) {
    trace->AddFetchEvent(static_cast<int>(chosen), start, channels_[chosen],
                         payload_bytes);
  }
  return Completion{channels_[chosen], total};
}

SimulatedNetwork::Completion SimulatedNetwork::SubmitRequest(
    uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return SubmitLocked(payload_bytes);
}

void SimulatedNetwork::WaitLocked(int64_t ready_micros) {
  int64_t now = clock_->NowMicros();
  if (ready_micros > now) {
    clock_->AdvanceMicros(ready_micros - now);
    if (obs::TraceContext* trace = obs::TraceContext::Current()) {
      trace->AddBlockedMicros(obs::TracePhase::kFetchBlocked,
                              ready_micros - now);
    }
  }
}

void SimulatedNetwork::WaitUntil(int64_t ready_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  WaitLocked(ready_micros);
}

int64_t SimulatedNetwork::Request(uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Completion done = SubmitLocked(payload_bytes);
  WaitLocked(done.ready_micros);
  return done.charged_micros;
}

}  // namespace integration
}  // namespace drugtree
