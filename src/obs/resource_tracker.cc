#include "obs/resource_tracker.h"

#include <algorithm>
#include <ctime>

#include "util/string_util.h"

namespace drugtree {
namespace obs {

MemoryTracker::MemoryTracker(std::string name, MemoryTracker* parent,
                             int64_t soft_limit_bytes, int64_t hard_limit_bytes)
    : name_(std::move(name)),
      parent_(parent),
      soft_limit_(soft_limit_bytes),
      hard_limit_(hard_limit_bytes) {}

MemoryTracker::~MemoryTracker() {
  // Children first: each child's destructor releases its outstanding usage
  // back into this node, so the remainder below is genuinely ours.
  {
    std::lock_guard<std::mutex> lock(children_mu_);
    children_.clear();
  }
  int64_t remaining = used_.load(std::memory_order_relaxed);
  if (remaining != 0 && parent_ != nullptr) parent_->Release(remaining);
}

void MemoryTracker::UpdatePeak(int64_t candidate) {
  int64_t observed = peak_.load(std::memory_order_relaxed);
  while (candidate > observed &&
         !peak_.compare_exchange_weak(observed, candidate,
                                      std::memory_order_relaxed)) {
  }
}

util::Status MemoryTracker::TryCharge(int64_t bytes) {
  if (bytes <= 0) return util::Status::OK();
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    int64_t now =
        node->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (node->hard_limit_ > 0 && now > node->hard_limit_) {
      // Roll back this node and every level already charged below it.
      for (MemoryTracker* p = this;; p = p->parent_) {
        p->used_.fetch_sub(bytes, std::memory_order_relaxed);
        if (p == node) break;
      }
      return util::Status::ResourceExhausted(util::StringPrintf(
          "memory limit exceeded on tracker '%s': %lld + %lld > %lld bytes",
          node->name_.c_str(), (long long)(now - bytes), (long long)bytes,
          (long long)node->hard_limit_));
    }
    node->UpdatePeak(now);
  }
  return util::Status::OK();
}

void MemoryTracker::Charge(int64_t bytes) {
  if (bytes <= 0) return;
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    int64_t now =
        node->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    node->UpdatePeak(now);
  }
}

void MemoryTracker::Release(int64_t bytes) {
  if (bytes <= 0) return;
  for (MemoryTracker* node = this; node != nullptr; node = node->parent_) {
    node->used_.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

MemoryTracker* MemoryTracker::GetOrCreateChild(const std::string& name,
                                               int64_t soft_limit_bytes,
                                               int64_t hard_limit_bytes) {
  std::lock_guard<std::mutex> lock(children_mu_);
  for (const auto& child : children_) {
    if (child->name_ == name) return child.get();
  }
  children_.push_back(std::make_unique<MemoryTracker>(
      name, this, soft_limit_bytes, hard_limit_bytes));
  return children_.back().get();
}

MemoryTracker* MemoryTracker::AddChild(const std::string& name) {
  std::lock_guard<std::mutex> lock(children_mu_);
  children_.push_back(std::make_unique<MemoryTracker>(name, this));
  return children_.back().get();
}

void MemoryTracker::RemoveChild(MemoryTracker* child) {
  std::unique_ptr<MemoryTracker> removed;
  {
    std::lock_guard<std::mutex> lock(children_mu_);
    auto it = std::find_if(
        children_.begin(), children_.end(),
        [child](const auto& owned) { return owned.get() == child; });
    if (it == children_.end()) return;
    removed = std::move(*it);
    children_.erase(it);
  }
}

std::string MemoryTracker::ToJson() const {
  std::string out = util::StringPrintf(
      "{\"name\":\"%s\",\"used\":%lld,\"peak\":%lld,\"soft_limit\":%lld,"
      "\"hard_limit\":%lld,\"children\":[",
      name_.c_str(), (long long)used(), (long long)peak(),
      (long long)soft_limit_, (long long)hard_limit_);
  {
    std::lock_guard<std::mutex> lock(children_mu_);
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += ",";
      out += children_[i]->ToJson();
    }
  }
  out += "]}";
  return out;
}

int64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<int64_t>(ts.tv_nsec) / 1'000;
#else
  return 0;
#endif
}

}  // namespace obs
}  // namespace drugtree
