// AdaptiveController: closed-loop retuning of per-class morsel parallelism
// from observed completion latencies.
//
// The control signal is the interactive class's recent p99 versus its
// latency target; the actuator is the *analytic* class's aggressiveness.
// Analytic work starts at full width (it soaks spare slots on an idle
// server); when interactive p99 climbs past the target, analytic
// parallelism steps down so interactive requests stop queueing behind wide
// morsel fans; when p99 stays comfortably low for several consecutive
// windows (hysteresis — one good window is noise), analytic width steps
// back up.
//
// Safety: parallelism is a result-invariance axis of the engine (identical
// rows at any setting), so the controller can never change answers — only
// latency. Decisions are count-driven (every `window` interactive
// completions), not wall-clock-driven, so behavior is deterministic under a
// simulated clock.

#ifndef DRUGTREE_SERVER_ADAPTIVE_H_
#define DRUGTREE_SERVER_ADAPTIVE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "server/request.h"

namespace drugtree {
namespace server {

struct AdaptiveOptions {
  /// Off by default: requests run with their submitted knobs untouched.
  bool enabled = false;
  /// Interactive completions per control decision.
  int window = 64;
  /// Interactive p99 target the controller defends (distinct from the SLO
  /// target, which is enqueue->completion at a coarser bound). A p99 above
  /// 0.9 * target steps analytic width down immediately; one below
  /// 0.5 * target is a "comfortable" window, and after `hysteresis`
  /// consecutive ones analytic width steps back up, between parallelism 1
  /// and 4 (adaptive.cc).
  int64_t target_micros = 2'000;
  int hysteresis = 2;
};

/// The execution knob the controller owns per class.
struct AdaptiveKnobs {
  int parallelism = 1;
};

class AdaptiveController {
 public:
  explicit AdaptiveController(const AdaptiveOptions& options);

  const AdaptiveOptions& options() const { return options_; }

  /// Feed one completed request's enqueue->completion latency. Interactive
  /// completions drive the control loop; other classes are ignored (their
  /// latency is the thing being traded away). No-op when disabled.
  void Record(QueryClass cls, int64_t latency_micros);

  /// Current knobs for a class. Interactive knobs are fixed (small
  /// requests gain nothing from wide morsel fans); analytic knobs move
  /// with the control loop.
  AdaptiveKnobs knobs(QueryClass cls) const;

  int64_t decisions() const;
  int64_t steps_down() const;
  int64_t steps_up() const;

  /// {"enabled":..,"decisions":..,"steps_down":..,"steps_up":..,
  ///  "last_p99_micros":..,"analytic":{"parallelism":..}}
  std::string StatszJson() const;

 private:
  void StepDownLocked();
  void StepUpLocked();

  const AdaptiveOptions options_;

  mutable std::mutex mu_;
  std::vector<int64_t> window_;  // interactive latencies this window
  AdaptiveKnobs interactive_;
  AdaptiveKnobs analytic_;
  int low_streak_ = 0;
  int64_t last_p99_micros_ = 0;
  int64_t decisions_ = 0;
  int64_t steps_down_ = 0;
  int64_t steps_up_ = 0;
};

}  // namespace server
}  // namespace drugtree

#endif  // DRUGTREE_SERVER_ADAPTIVE_H_
