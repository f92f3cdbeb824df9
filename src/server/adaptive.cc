#include "server/adaptive.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace server {

AdaptiveController::AdaptiveController(const AdaptiveOptions& options)
    : options_(options) {
  window_.reserve(static_cast<size_t>(std::max(1, options_.window)));
  // Analytic starts wide: an unloaded server should soak every spare slot.
  // The first pressured window walks it down.
  analytic_.parallelism = options_.max_parallelism;
}

void AdaptiveController::Record(QueryClass cls, int64_t latency_micros) {
  if (!options_.enabled || cls != QueryClass::kInteractive) return;
  std::lock_guard<std::mutex> lock(mu_);
  window_.push_back(latency_micros);
  if (static_cast<int>(window_.size()) < std::max(1, options_.window)) return;
  std::sort(window_.begin(), window_.end());
  size_t idx = static_cast<size_t>(0.99 * static_cast<double>(window_.size()));
  if (idx >= window_.size()) idx = window_.size() - 1;
  last_p99_micros_ = window_[idx];
  window_.clear();
  ++decisions_;
  const double target = static_cast<double>(options_.target_micros);
  const double p99 = static_cast<double>(last_p99_micros_);
  if (p99 > options_.high_ratio * target) {
    low_streak_ = 0;
    StepDownLocked();
  } else if (p99 < options_.low_ratio * target) {
    if (++low_streak_ >= std::max(1, options_.hysteresis)) {
      low_streak_ = 0;
      StepUpLocked();
    }
  } else {
    low_streak_ = 0;  // in-band: hold, and restart the step-up evidence
  }
}

void AdaptiveController::StepDownLocked() {
  if (analytic_.parallelism > options_.min_parallelism) {
    --analytic_.parallelism;
    ++steps_down_;
  }
}

void AdaptiveController::StepUpLocked() {
  if (analytic_.parallelism < options_.max_parallelism) {
    ++analytic_.parallelism;
    ++steps_up_;
  }
}

AdaptiveKnobs AdaptiveController::knobs(QueryClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cls == QueryClass::kInteractive ? interactive_ : analytic_;
}

int64_t AdaptiveController::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

int64_t AdaptiveController::steps_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_down_;
}

int64_t AdaptiveController::steps_up() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_up_;
}

std::string AdaptiveController::StatszJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return util::StringPrintf(
      "{\"enabled\":%s,\"decisions\":%lld,\"steps_down\":%lld,"
      "\"steps_up\":%lld,\"last_p99_micros\":%lld,"
      "\"analytic\":{\"parallelism\":%d}}",
      options_.enabled ? "true" : "false", (long long)decisions_,
      (long long)steps_down_, (long long)steps_up_,
      (long long)last_p99_micros_, analytic_.parallelism);
}

}  // namespace server
}  // namespace drugtree
