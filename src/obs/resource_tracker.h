// Hierarchical memory accounting. A MemoryTracker is one node in a tree
// (server -> query class -> session -> query -> operator); charging a node
// propagates the bytes up every ancestor, so the server root always knows
// total resident demand while each level keeps its own usage, peak
// watermark, and optional limits:
//
//   * hard limit — TryCharge() refuses the charge (kResourceExhausted) and
//     rolls the partial propagation back, so a query that would blow its
//     budget aborts cleanly instead of OOMing the process;
//   * soft limit — advisory watermark; OverSoftLimit() is what the serving
//     layer's memory-pressure admission checks before accepting analytic
//     work.
//
// The charge/release fast path is lock-free: one relaxed fetch_add per
// tree level plus a CAS-max for the peak. The only mutex guards the child
// list, which changes when a session's first request is dispatched and
// when its last one completes — never per charge.
//
// Ownership: registered children (GetOrCreateChild, AddChild) are owned by
// the parent and live until it dies or removes them (RemoveChild): the
// class spine lives as long as the server, a session's node as long as it
// has a request in flight. Transient nodes (one per executing query) are
// constructed directly with a parent pointer, never registered, and
// release any outstanding usage from their ancestors on destruction, so an
// aborted query cannot leak charges.

#ifndef DRUGTREE_OBS_RESOURCE_TRACKER_H_
#define DRUGTREE_OBS_RESOURCE_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace drugtree {
namespace obs {

class MemoryTracker {
 public:
  /// `parent` is borrowed and must outlive this node (charges propagate
  /// into it). Limits are bytes; 0 disables the respective limit.
  explicit MemoryTracker(std::string name, MemoryTracker* parent = nullptr,
                         int64_t soft_limit_bytes = 0,
                         int64_t hard_limit_bytes = 0);

  /// Destroys registered children first (they release their usage back into
  /// this node), then releases whatever is still outstanding from the
  /// ancestors — a dying node never leaves phantom bytes above it.
  ~MemoryTracker();

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Charges `bytes` to this node and every ancestor. If any node on the
  /// path would exceed its hard limit the whole charge is rolled back and
  /// kResourceExhausted (naming the offending tracker) is returned. Peaks
  /// are updated on every successful level.
  util::Status TryCharge(int64_t bytes);

  /// Charges unconditionally (no hard-limit check). For accounting paths
  /// that bound themselves — caches with their own eviction — where the
  /// tracker observes, not polices.
  void Charge(int64_t bytes);

  /// Releases `bytes` from this node and every ancestor.
  void Release(int64_t bytes);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t soft_limit_bytes() const { return soft_limit_; }
  int64_t hard_limit_bytes() const { return hard_limit_; }
  const std::string& name() const { return name_; }
  MemoryTracker* parent() const { return parent_; }

  /// True once usage is at or above the soft limit (false when unset).
  bool OverSoftLimit() const {
    return soft_limit_ > 0 && used() >= soft_limit_;
  }

  /// Returns the registered child with `name`, creating (and owning) it on
  /// first use. Thread-safe; lookups are a linear scan under the child
  /// mutex, for the few long-lived nodes of the tree's spine — never on the
  /// charge path.
  MemoryTracker* GetOrCreateChild(const std::string& name,
                                  int64_t soft_limit_bytes = 0,
                                  int64_t hard_limit_bytes = 0);

  /// Creates and owns a child named `name`, without looking for an
  /// existing one: for callers that index their children themselves.
  MemoryTracker* AddChild(const std::string& name);

  /// Destroys the registered child `child`, which releases its usage from
  /// this node and above. Nothing may charge it, or hold a node parented
  /// into it, any longer.
  void RemoveChild(MemoryTracker* child);

  /// Recursive JSON snapshot of the subtree:
  ///   {"name":"server","used":...,"peak":...,"soft_limit":...,
  ///    "hard_limit":...,"children":[...]}
  std::string ToJson() const;

 private:
  void UpdatePeak(int64_t candidate);

  const std::string name_;
  MemoryTracker* const parent_;
  const int64_t soft_limit_;
  const int64_t hard_limit_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};

  mutable std::mutex children_mu_;
  std::vector<std::unique_ptr<MemoryTracker>> children_;
};

/// RAII charge against a tracker (unconditional), released on scope exit.
/// Used for transient buffers — mediator fetch/decode payloads — where the
/// bytes exist only for the enclosing scope. A null tracker is a no-op.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(MemoryTracker* tracker, int64_t bytes)
      : tracker_(tracker), bytes_(bytes) {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->Charge(bytes_);
  }
  ~ScopedMemoryCharge() {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->Release(bytes_);
  }

  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

 private:
  MemoryTracker* tracker_;
  int64_t bytes_;
};

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID). 0 where the clock is unavailable. This is
/// real CPU time, not virtual time: traces record it for heaviness
/// forensics, never for deterministic assertions.
int64_t ThreadCpuMicros();

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_RESOURCE_TRACKER_H_
