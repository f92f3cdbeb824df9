// Semantic cache for remote-source responses.
//
// Keys are canonical request descriptors ("protein:acc:P00_0003",
// "activities:acc:P00_0003", "proteins:family:family-2"); payloads are the
// serialized responses. Semantic reuse happens by key decomposition: when a
// coarse request (whole family, batch) is fetched, the mediator also caches
// each member record under its fine-grained key, so later point requests are
// served locally — the cache understands request *containment*, not just
// equality. Charged by payload bytes, evicted LRU.

#ifndef DRUGTREE_INTEGRATION_SEMANTIC_CACHE_H_
#define DRUGTREE_INTEGRATION_SEMANTIC_CACHE_H_

#include <optional>
#include <string>

#include "storage/lru_cache.h"

namespace drugtree {
namespace integration {

class SemanticCache {
 public:
  /// `capacity_bytes` bounds the sum of cached payload sizes.
  explicit SemanticCache(uint64_t capacity_bytes)
      : cache_(capacity_bytes) {
    cache_.EnableMetrics("integration.semantic_cache");
  }

  /// Canonical key builders.
  static std::string ProteinKey(const std::string& accession) {
    return "protein:acc:" + accession;
  }
  static std::string FamilyKey(const std::string& family) {
    return "proteins:family:" + family;
  }
  static std::string ActivitiesByProteinKey(const std::string& accession) {
    return "activities:acc:" + accession;
  }

  /// Stores a payload under a key (charge = payload size, minimum 1).
  void Put(const std::string& key, std::string payload) {
    uint64_t charge = std::max<uint64_t>(1, payload.size());
    cache_.Put(key, std::move(payload), charge);
  }

  /// Fetches a payload; nullopt on miss.
  std::optional<std::string> Get(const std::string& key) {
    return cache_.Get(key);
  }

  bool Contains(const std::string& key) const { return cache_.Contains(key); }
  void Clear() { cache_.Clear(); }

  /// Mirrors cached payload bytes into a tracker node (resource hierarchy).
  void AttachMemoryTracker(obs::MemoryTracker* tracker) {
    cache_.AttachMemoryTracker(tracker);
  }

  const storage::CacheStats& stats() const { return cache_.stats(); }
  uint64_t used_bytes() const { return cache_.used(); }

 private:
  storage::LruCache<std::string, std::string> cache_;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_SEMANTIC_CACHE_H_
