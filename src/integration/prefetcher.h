// Tree-aware prefetcher.
//
// Interactive DrugTree sessions show strong phylogenetic locality: after an
// analyst inspects one protein they usually inspect its clade neighbours.
// The prefetcher exploits this: on a cache miss for an accession it widens
// the fetch to the protein's whole family (one batched request) and installs
// every member — plus their activity lists, optionally — into the semantic
// cache. Experiment E3 measures the effect; usefulness accounting
// (prefetched entries that were later actually requested) is tracked here.
//
// Demand fetches block on the mediator's Deferred responses (Await). The
// widening fetches are the same calls; async_prefetch only decides whether
// each one is waited on at once or at Quiesce().

#ifndef DRUGTREE_INTEGRATION_PREFETCHER_H_
#define DRUGTREE_INTEGRATION_PREFETCHER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "integration/mediator.h"
#include "util/result.h"

namespace drugtree {
namespace integration {

struct PrefetcherStats {
  uint64_t demand_fetches = 0;     // cache-missing requests we served
  uint64_t cache_hits = 0;         // requests served from cache
  uint64_t prefetched_records = 0; // records installed speculatively
  uint64_t useful_prefetches = 0;  // speculative installs later requested

  double Usefulness() const {
    return prefetched_records
               ? static_cast<double>(useful_prefetches) /
                     static_cast<double>(prefetched_records)
               : 0.0;
  }
};

struct PrefetcherOptions {
  /// Widen protein misses to the whole family.
  bool widen_to_family = true;
  /// Also prefetch the activity lists of the widened members.
  bool prefetch_activities = false;
  /// Leave the widening fetches in flight on spare link channels instead
  /// of waiting on each at once. The caller (or the next demand fetch)
  /// pays the wait via Quiesce(). Off by default so the serial timing of
  /// existing sessions is unchanged.
  bool async_prefetch = false;
};

class TreeAwarePrefetcher {
 public:
  /// `mediator` and `cache` are borrowed. The prefetcher needs the cache the
  /// mediator writes through (the same instance).
  TreeAwarePrefetcher(Mediator* mediator, SemanticCache* cache,
                      PrefetcherOptions options)
      : mediator_(mediator), cache_(cache), options_(options) {}

  /// Demand-fetches one protein with prefetching side effects.
  util::Result<ProteinRecord> GetProtein(const std::string& accession);

  /// Demand-fetches one protein's activities with prefetching side effects.
  util::Result<std::vector<ActivityRecord>> GetActivities(
      const std::string& accession);

  /// Waits until all overlapped prefetch requests have completed (advances
  /// the simulated clock to the latest outstanding completion). No-op when
  /// async_prefetch is off or nothing is outstanding.
  void Quiesce();

  const PrefetcherStats& stats() const { return stats_; }

 private:
  void MarkPrefetched(const std::string& cache_key);
  void AccountRequest(const std::string& cache_key, bool was_hit);
  /// Waits for a widening fetch landing at `ready_micros` now, or with
  /// async_prefetch leaves it to Quiesce().
  void Settle(int64_t ready_micros);

  Mediator* mediator_;
  SemanticCache* cache_;
  PrefetcherOptions options_;
  PrefetcherStats stats_;
  std::unordered_set<std::string> speculative_;  // keys installed by prefetch
  int64_t pending_ready_micros_ = 0;  // latest overlapped completion time
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_PREFETCHER_H_
