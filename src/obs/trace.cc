#include "obs/trace.h"

#include <string>

namespace drugtree {
namespace obs {

SpanSite::SpanSite(const char* name) {
  MetricRegistry* registry = MetricRegistry::Default();
  const std::string base = std::string("span.") + name;
  total_micros_ = registry->GetCounter(base + ".total_micros");
  count_ = registry->GetCounter(base + ".count");
}

Tracer* Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return tracer;
}

void Tracer::set_clock(const util::Clock* clock) {
  clock_.store(clock, std::memory_order_relaxed);
}

const util::Clock* Tracer::clock() const {
  const util::Clock* c = clock_.load(std::memory_order_relaxed);
  return c != nullptr ? c : util::RealClock::Instance();
}

}  // namespace obs
}  // namespace drugtree
