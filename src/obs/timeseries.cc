#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace drugtree {
namespace obs {

namespace {

/// Stable short rendering: integers print without a fraction, everything
/// else with 6 significant digits — byte-identical across runs of the same
/// binary, which is the perf-gate diff contract.
std::string FormatValue(double v) {
  return util::StringPrintf("%.6g", v);
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(size_t capacity_per_series)
    : capacity_(std::max<size_t>(2, capacity_per_series)) {}

void TimeSeriesStore::Observe(const std::string& series, int64_t t_micros,
                              double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Ring& ring = series_[series];
  if (ring.points.size() < capacity_) {
    ring.points.push_back({t_micros, value});
  } else {
    ring.points[ring.next] = {t_micros, value};
    ring.next = (ring.next + 1) % capacity_;
  }
  ++ring.observed;
  ++total_points_;
}

std::vector<TimePoint> TimeSeriesStore::OrderedLocked(const Ring& ring) const {
  std::vector<TimePoint> out;
  out.reserve(ring.points.size());
  if (ring.points.size() < capacity_) {
    out = ring.points;
    return out;
  }
  for (size_t i = 0; i < ring.points.size(); ++i) {
    out.push_back(ring.points[(ring.next + i) % capacity_]);
  }
  return out;
}

std::vector<TimePoint> TimeSeriesStore::Points(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  return OrderedLocked(it->second);
}

bool TimeSeriesStore::Latest(const std::string& series, TimePoint* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end() || it->second.points.empty()) return false;
  const Ring& ring = it->second;
  size_t last = ring.points.size() < capacity_
                    ? ring.points.size() - 1
                    : (ring.next + capacity_ - 1) % capacity_;
  *out = ring.points[last];
  return true;
}

bool TimeSeriesStore::WindowAverage(const std::string& series,
                                    int64_t now_micros, int64_t window_micros,
                                    double* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return false;
  double sum = 0.0;
  int64_t n = 0;
  for (const TimePoint& p : it->second.points) {
    if (p.t_micros > now_micros - window_micros && p.t_micros <= now_micros) {
      sum += p.value;
      ++n;
    }
  }
  if (n == 0) return false;
  *out = sum / static_cast<double>(n);
  return true;
}

size_t TimeSeriesStore::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

int64_t TimeSeriesStore::total_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_points_;
}

std::string TimeSeriesStore::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  bool first_series = true;
  for (const auto& [name, ring] : series_) {
    std::vector<TimePoint> points = OrderedLocked(ring);
    if (points.empty()) continue;
    double mn = points.front().value, mx = points.front().value, sum = 0.0;
    for (const TimePoint& p : points) {
      mn = std::min(mn, p.value);
      mx = std::max(mx, p.value);
      sum += p.value;
    }
    if (!first_series) out += ",";
    first_series = false;
    out += util::StringPrintf(
        "{\"name\":\"%s\",\"points\":%zu,\"observed\":%lld,"
        "\"first_t\":%lld,\"last_t\":%lld,\"last\":%s,\"min\":%s,"
        "\"max\":%s,\"mean\":%s}",
        name.c_str(), points.size(), (long long)ring.observed,
        (long long)points.front().t_micros, (long long)points.back().t_micros,
        FormatValue(points.back().value).c_str(), FormatValue(mn).c_str(),
        FormatValue(mx).c_str(),
        FormatValue(sum / static_cast<double>(points.size())).c_str());
  }
  out += "]";
  return out;
}

std::string TimeSeriesStore::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = util::StringPrintf("{\"capacity\":%zu,\"series\":[",
                                       capacity_);
  bool first_series = true;
  for (const auto& [name, ring] : series_) {
    if (!first_series) out += ",";
    first_series = false;
    out += util::StringPrintf("{\"name\":\"%s\",\"observed\":%lld,\"points\":[",
                              name.c_str(), (long long)ring.observed);
    bool first_point = true;
    for (const TimePoint& p : OrderedLocked(ring)) {
      if (!first_point) out += ",";
      first_point = false;
      out += util::StringPrintf("[%lld,%s]", (long long)p.t_micros,
                                FormatValue(p.value).c_str());
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void TimeSeriesStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  total_points_ = 0;
}

MetricsSampler::MetricsSampler(TimeSeriesStore* store, MetricRegistry* registry,
                               const util::Clock* clock, SamplerOptions options)
    : store_(store),
      registry_(registry),
      clock_(clock),
      options_(std::move(options)) {}

void MetricsSampler::AddProbe(std::string series,
                              std::function<double()> probe) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.emplace_back(std::move(series), std::move(probe));
}

bool MetricsSampler::Due() const {
  int64_t last = last_sample_relaxed_.load(std::memory_order_relaxed);
  return last < 0 || clock_->NowMicros() - last >= options_.interval_micros;
}

bool MetricsSampler::SampleIfDue() {
  if (!Due()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = clock_->NowMicros();
  if (last_sample_micros_ >= 0 &&
      now - last_sample_micros_ < options_.interval_micros) {
    return false;
  }
  SampleLocked(now);
  return true;
}

void MetricsSampler::SampleNow() {
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(clock_->NowMicros());
}

void MetricsSampler::SampleLocked(int64_t now_micros) {
  for (const auto& [series, probe] : probes_) {
    double v = probe();
    if (std::isnan(v)) continue;
    store_->Observe(series, now_micros, v);
  }
  if (!options_.registry_prefixes.empty()) {
    double dt_seconds =
        last_sample_micros_ >= 0 && now_micros > last_sample_micros_
            ? static_cast<double>(now_micros - last_sample_micros_) / 1e6
            : 0.0;
    RegistrySnapshot snap = registry_->Snapshot();
    for (const MetricSnapshot& m : snap.metrics) {
      bool matched = false;
      for (const std::string& prefix : options_.registry_prefixes) {
        if (m.name.rfind(prefix, 0) == 0) {
          matched = true;
          break;
        }
      }
      if (!matched) continue;
      std::string full = m.FullName();
      switch (m.kind) {
        case MetricKind::kCounter: {
          auto it = prev_counters_.find(full);
          // First observation only seeds: a cumulative total differenced
          // against nothing would spike the rate series.
          if (it != prev_counters_.end() && dt_seconds > 0.0) {
            store_->Observe(full + ".rate", now_micros,
                            static_cast<double>(m.value - it->second) /
                                dt_seconds);
          }
          prev_counters_[full] = m.value;
          break;
        }
        case MetricKind::kGauge:
          store_->Observe(full, now_micros, static_cast<double>(m.value));
          break;
        case MetricKind::kHistogram:
          store_->Observe(full + ".p50", now_micros, m.hist.Percentile(50.0));
          store_->Observe(full + ".p95", now_micros, m.hist.Percentile(95.0));
          store_->Observe(full + ".p99", now_micros, m.hist.Percentile(99.0));
          break;
      }
    }
  }
  last_sample_micros_ = now_micros;
  last_sample_relaxed_.store(now_micros, std::memory_order_relaxed);
  ++samples_;
}

int64_t MetricsSampler::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

}  // namespace obs
}  // namespace drugtree
