#include "integration/prefetcher.h"

#include <algorithm>

#include "integration/network.h"
#include "obs/metrics.h"

namespace drugtree {
namespace integration {

namespace {

/// Registry mirrors of PrefetchStats, shared across prefetcher instances.
struct PrefetchMetrics {
  obs::Counter* prefetched;
  obs::Counter* useful;
  obs::Counter* demand;
  obs::Counter* hits;
};

const PrefetchMetrics& Metrics() {
  static const PrefetchMetrics metrics = [] {
    auto* registry = obs::MetricRegistry::Default();
    return PrefetchMetrics{
        registry->GetCounter("integration.prefetch.records"),
        registry->GetCounter("integration.prefetch.useful"),
        registry->GetCounter("integration.prefetch.demand_fetches"),
        registry->GetCounter("integration.prefetch.cache_hits")};
  }();
  return metrics;
}

}  // namespace

void TreeAwarePrefetcher::MarkPrefetched(const std::string& cache_key) {
  if (speculative_.insert(cache_key).second) {
    ++stats_.prefetched_records;
    Metrics().prefetched->Increment();
  }
}

void TreeAwarePrefetcher::AccountRequest(const std::string& cache_key,
                                         bool was_hit) {
  if (was_hit) {
    ++stats_.cache_hits;
    Metrics().hits->Increment();
    auto it = speculative_.find(cache_key);
    if (it != speculative_.end()) {
      ++stats_.useful_prefetches;
      Metrics().useful->Increment();
      speculative_.erase(it);  // count usefulness once
    }
  } else {
    ++stats_.demand_fetches;
    Metrics().demand->Increment();
  }
}

void TreeAwarePrefetcher::Settle(int64_t ready_micros) {
  if (options_.async_prefetch) {
    pending_ready_micros_ = std::max(pending_ready_micros_, ready_micros);
  } else if (SimulatedNetwork* net = mediator_->network()) {
    net->WaitUntil(ready_micros);
  }
}

util::Result<ProteinRecord> TreeAwarePrefetcher::GetProtein(
    const std::string& accession) {
  const std::string key = SemanticCache::ProteinKey(accession);
  MediatorOptions mopts;  // cache on, batch on
  bool hit = cache_->Contains(key);
  AccountRequest(key, hit);
  SimulatedNetwork* net = mediator_->network();
  if (hit) return Await(net, mediator_->GetProtein(accession, mopts));

  // Miss: demand-fetch the record itself first so the caller is not blocked
  // on widening failures.
  DRUGTREE_ASSIGN_OR_RETURN(
      ProteinRecord rec, Await(net, mediator_->GetProtein(accession, mopts)));
  if (!options_.widen_to_family) return rec;
  // The payloads land in the cache at once; only their arrival time is
  // waited on now or deferred (Settle).
  auto family = mediator_->GetFamily(rec.family, mopts);
  Settle(family.ready_micros);
  DRUGTREE_ASSIGN_OR_RETURN(std::vector<ProteinRecord> members,
                            std::move(family.value));
  for (const auto& member : members) {
    if (member.accession == accession) continue;
    MarkPrefetched(SemanticCache::ProteinKey(member.accession));
    if (options_.prefetch_activities) {
      const std::string akey =
          SemanticCache::ActivitiesByProteinKey(member.accession);
      if (!cache_->Contains(akey)) {
        auto acts = mediator_->GetActivities(member.accession, mopts);
        Settle(acts.ready_micros);
        DRUGTREE_RETURN_IF_ERROR(acts.value.status());
        MarkPrefetched(akey);
      }
    }
  }
  return rec;
}

void TreeAwarePrefetcher::Quiesce() {
  if (pending_ready_micros_ == 0) return;
  if (SimulatedNetwork* net = mediator_->network()) {
    net->WaitUntil(pending_ready_micros_);
  }
  pending_ready_micros_ = 0;
}

util::Result<std::vector<ActivityRecord>> TreeAwarePrefetcher::GetActivities(
    const std::string& accession) {
  const std::string key = SemanticCache::ActivitiesByProteinKey(accession);
  bool hit = cache_->Contains(key);
  AccountRequest(key, hit);
  MediatorOptions mopts;
  return Await(mediator_->network(),
               mediator_->GetActivities(accession, mopts));
}

}  // namespace integration
}  // namespace drugtree
