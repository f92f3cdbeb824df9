// Parameterized plan cache (Hyrise-style): literals are normalized out of
// the parsed statement (query/normalize.h), the optimized logical plan is
// stored as a template keyed by the structural fingerprint, and later
// executions of the same shape re-bind the stored plan to their literal
// values instead of re-running the optimizer.
//
// Soundness of re-binding: NormalizeStatement tags every literal with a
// positional ordinal that survives Clone(). Rewrites that *consume* a
// literal at plan time (tree-predicate rewriting resolves the node name
// into interval constants; constant folding collapses literal-only trees;
// TRUE-conjunct elimination drops them) synthesize fresh, untagged
// literals — so a template is re-bindable only when every ordinal appears
// verbatim in the optimized plan. Templates that consumed a literal are
// still cached, but a lookup with different parameter values re-plans from
// scratch: a stale or unusable template can cost a re-plan, never a wrong
// result. (Re-bound plans keep the template's join order — the classic
// parametric-plan tradeoff: always correct, possibly suboptimal for
// outlier literals.)
//
// Each fingerprint holds a small MRU list of parameter variants, so hot
// non-rebindable statements (a mobile session cycling a handful of subtree
// overlays, whose node literals are consumed by the tree-predicate rewrite)
// all stay resident instead of evicting one another, and a successful
// re-bind is memoized as a variant — the clone + substitution is paid once
// per literal vector, not per execution.
//
// Invalidation: each template captures a version signature — the catalog
// data epoch, each referenced table's plan_version() (mutations, Analyze
// stats refreshes, encoded-segment builds/drops; a rebuild that keeps a
// fresh snapshot bumps nothing), and the cost-calibrator coefficient
// version. Any bump makes the next lookup evict and re-plan.
//
// Thread-safe: one cache serves every planner slot of a server.

#ifndef DRUGTREE_QUERY_PLAN_CACHE_H_
#define DRUGTREE_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/catalog.h"
#include "query/logical_plan.h"
#include "query/parser.h"
#include "storage/value.h"

namespace drugtree {
namespace query {

class PlanCache {
 public:
  /// Everything a cached plan's validity depends on.
  struct VersionSignature {
    uint64_t catalog_epoch = 0;
    uint64_t cost_version = 0;  // calibrated-coefficient version
    /// plan_version() of each referenced table, in statement order.
    std::vector<std::pair<std::string, uint64_t>> tables;

    bool operator==(const VersionSignature& o) const {
      return catalog_epoch == o.catalog_epoch &&
             cost_version == o.cost_version && tables == o.tables;
    }
  };

  /// Snapshot of the statement tables' current versions. Unregistered
  /// tables record version 0 (planning will fail later anyway).
  static VersionSignature CaptureVersions(const Catalog& catalog,
                                          const SelectStatement& stmt,
                                          uint64_t cost_version);

  struct Stats {
    int64_t hits = 0;           // template reused (verbatim or re-bound)
    int64_t rebinds = 0;        // subset of hits: parameters substituted
    int64_t misses = 0;         // no template / unusable template
    int64_t invalidations = 0;  // evicted on a version-signature mismatch
    int64_t installs = 0;
    int64_t variant_evictions = 0;  // per-fingerprint MRU list overflowed
  };

  struct Lookup {
    LogicalPtr plan;      // null = miss: plan from scratch, then Install
    bool rebound = false;
  };

  explicit PlanCache(size_t capacity_entries = 256)
      : capacity_(capacity_entries > 0 ? capacity_entries : 1) {}

  /// Looks up `fingerprint`. A stored entry whose signature differs from
  /// `current` is evicted wholesale (invalidation) — the caller re-plans.
  /// On a match: a variant with identical parameters is reused directly
  /// (the returned plan is shared and must be treated as read-only —
  /// physical planning clones every expression it lifts); otherwise a
  /// re-bindable variant is deep-cloned, substituted, and memoized as a new
  /// variant; with neither, the lookup counts as a miss.
  Lookup Get(const std::string& fingerprint, const VersionSignature& current,
             const std::vector<storage::Value>& params);

  /// Installs a variant for `fingerprint` (replacing the whole entry when
  /// its signature is stale). `plan` is the freshly optimized logical plan
  /// with ordinal tags intact; `params` are the literal values it was
  /// planned with.
  void Install(const std::string& fingerprint, LogicalPtr plan,
               std::vector<storage::Value> params, VersionSignature versions);

  void Clear();
  size_t size() const;
  Stats stats() const;

  /// {"entries":..,"variants":..,"capacity":..,"hits":..,"rebinds":..,
  ///  "misses":..,"invalidations":..,"installs":..,"variant_evictions":..}
  std::string StatszJson() const;

 private:
  /// Bound on the per-fingerprint variant list: enough for a mobile
  /// session's working set of hot subtree nodes, small enough that the
  /// exact-parameter scan stays a handful of Value compares.
  static constexpr size_t kMaxVariantsPerEntry = 8;

  struct Template {
    LogicalPtr plan;
    std::vector<storage::Value> params;
    bool rebindable = false;
  };

  struct Entry {
    VersionSignature versions;     // shared: any bump evicts every variant
    std::list<Template> variants;  // front = most recently used
    std::list<std::string>::iterator lru_it;
  };

  void TouchLocked(Entry& entry, const std::string& fingerprint);
  void TrimVariantsLocked(Entry& entry);

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<std::string> lru_;  // front = most recent
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PLAN_CACHE_H_
