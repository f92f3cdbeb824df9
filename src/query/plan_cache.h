// Parametric plan cache (Hyrise-style): the lexer factors literals out of
// the statement text (query/lexer.h), the optimized logical plan is stored
// as a shared, read-only template keyed by the lexer's fingerprint and the
// optimizer's rule flags, and later executions of the same shape reuse the
// template with their own literals instead of re-running the optimizer. A
// hit does not parse: Planner::Run looks the fingerprint up right after
// lexing, and only a miss parses the tokens it has. Each planner lowers a
// template to a physical plan once and keeps it, keyed by the template's
// identity (planner.h): a hit assigns the statement's literals to that
// plan's literal copies and runs it, so a hit never copies or modifies the
// template.
//
// Soundness of re-binding: the parser tags every literal built from a
// parameter token with that token's ordinal, and the tag survives Clone().
// One fingerprint is one token sequence up to parameter values, so its
// ordinals name the same literal positions in every statement that shares
// it. The tree-predicate rewrite keeps SUBTREE/ANCESTOR_OF node literals
// as parameters: each interval bound it synthesizes carries the node
// literal's ordinal and its role (pre or post), and binding re-resolves
// the node (rules.h BindParams). A template's node ordinals are recorded
// when it is installed, so a lookup resolves them without walking it.
// Rewrites that *consume* a literal (constant folding collapses
// literal-only trees; TRUE-conjunct elimination drops them) leave
// untagged literals, so a template is re-bindable only when every ordinal
// appears in the optimized plan. A template that consumed a literal is
// reused only for identical parameter values: a stale or unusable
// template can cost a re-plan, never a wrong result.
//
// Parametric variants: a statement over one table has one template, since
// no plan choice depends on its literals. A multi-scan statement's join
// order and join methods follow each scan's estimated rows, so its
// templates are keyed by each scan's cardinality class ceil(log2 rows)
// under the statement's literals (rules.h ScanClassifier): one template
// per class vector, so a leaf clade and the root keep their own join plans.
// Each entry builds its classifier once and classifies under the cache's
// mutex.
//
// Invalidation: each entry records its tables and captures a version
// signature — the catalog data epoch and each table's plan_version()
// (mutations, Analyze stats refreshes, index creation, encoded-segment
// builds/drops; a rebuild that keeps a fresh snapshot bumps nothing). A
// lookup compares the entry's signature against the catalog directly, so
// it needs no parsed statement, and any bump makes it evict and re-plan.
//
// Thread-safe: one cache serves every planner slot of a server, and each
// DrugTree instance has its own for its direct queries.

#ifndef DRUGTREE_QUERY_PLAN_CACHE_H_
#define DRUGTREE_QUERY_PLAN_CACHE_H_

#include <compare>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/catalog.h"
#include "query/logical_plan.h"
#include "query/parser.h"
#include "query/rules.h"
#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace query {

class PlanCache {
 public:
  /// A template family: one statement shape planned under one set of
  /// optimizer rules (a naive and an optimized plan never share entries).
  struct Key {
    std::string fingerprint;  // LexedStatement::fingerprint
    uint8_t rules = 0;        // RuleFlags(options)

    auto operator<=>(const Key&) const = default;
  };

  /// The five rule flags of `options`, one bit each.
  static uint8_t RuleFlags(const OptimizerOptions& options);

  /// Everything a cached plan's validity depends on.
  struct VersionSignature {
    uint64_t catalog_epoch = 0;
    /// Each referenced table with its plan_version(), in statement order:
    /// the tables an entry records.
    std::vector<std::pair<std::string, uint64_t>> tables;

    bool operator==(const VersionSignature&) const = default;
  };

  /// Snapshot of the statement tables' current versions. Unregistered
  /// tables record version 0 (planning will fail later anyway).
  static VersionSignature CaptureVersions(const Catalog& catalog,
                                          const SelectStatement& stmt);

  struct Stats {
    int64_t hits = 0;           // template reused
    int64_t rebinds = 0;        // subset of hits: planned for other literals
    int64_t misses = 0;         // no template / unusable template
    int64_t invalidations = 0;  // evicted on a version-signature mismatch
    int64_t installs = 0;
    int64_t variant_evictions = 0;  // an entry's class list overflowed
  };

  struct Lookup {
    /// Null = miss: plan from scratch, then Install. Shared and read-only:
    /// lower it with `bindings`.
    LogicalPtr plan;
    /// Set when `plan` was planned for other literals: the statement's own,
    /// bound for it.
    std::optional<ParamBindings> bindings;
    /// A multi-table statement's cardinality classes, hit or miss (empty
    /// for one table, or when the entry was missing or stale).
    std::vector<int> classes;
  };

  explicit PlanCache(size_t capacity_entries = 256)
      : capacity_(capacity_entries > 0 ? capacity_entries : 1) {}

  /// Looks up `key`. A stored entry whose signature no longer matches
  /// `catalog` is evicted wholesale (invalidation) — the caller re-plans.
  /// On a match, a multi-table entry's variant is picked by the
  /// cardinality classes of the statement under `params`' bindings; it is
  /// reused when it was planned for `params` or is re-bindable to them
  /// (same arity and literal types), and the lookup misses otherwise.
  /// Binding resolves the template's recorded node
  /// ordinals (BindParams); every template of an entry reads the same node
  /// literals, so one binding serves them all. A binding error (an unknown
  /// tree node) counts as a miss and is returned.
  util::Result<Lookup> Get(const Key& key, const Catalog& catalog,
                           const std::vector<storage::Value>& params);

  /// Installs `plan`, freshly optimized for `params` with its ordinal tags
  /// intact, as the variant of its class (replacing the whole entry when
  /// its signature is stale). `versions` (CaptureVersions, taken before
  /// planning) names the entry's tables. Records the plan's node ordinals
  /// in the walk that decides whether it is re-bindable.
  void Install(const Key& key, LogicalPtr plan,
               std::vector<storage::Value> params, VersionSignature versions,
               const Catalog& catalog);

  void Clear();
  size_t size() const;
  Stats stats() const;

  /// {"entries":..,"variants":..,"capacity":..,"hits":..,"rebinds":..,
  ///  "misses":..,"invalidations":..,"installs":..,"variant_evictions":..}
  std::string StatszJson() const;

 private:
  /// Bound on an entry's class variants. One per clade size class covers
  /// a two-way join over this engine's trees; a wider join whose scans
  /// each vary drops its oldest class first.
  static constexpr size_t kMaxVariantsPerEntry = 16;

  struct Template {
    std::vector<int> classes;  // empty for a single-table statement
    LogicalPtr plan;
    std::vector<storage::Value> params;
    bool rebindable = false;
    /// Ordinals of the literals the plan reads as tree nodes (BindParams).
    std::vector<int> node_ordinals;
  };

  struct Entry {
    VersionSignature versions;       // shared: any bump evicts every variant
    std::vector<Template> variants;  // oldest first, one per class
    /// A multi-table entry's classifier, built from its first template by
    /// the first lookup or install that classifies; valid while `versions`
    /// holds, and dropped with the variants when they start over.
    std::unique_ptr<ScanClassifier> classifier;
    std::list<Key>::iterator lru_it;
  };

  /// True iff `versions` still describes `catalog`.
  static bool IsCurrent(const VersionSignature& versions,
                        const Catalog& catalog);

  /// The classes of `plan`'s statement under `bindings`, through `entry`'s
  /// classifier (built from `plan` if it has none).
  static std::vector<int> Classify(Entry* entry, const LogicalNode& plan,
                                   const ParamBindings& bindings,
                                   const Catalog& catalog);

  /// The variant of `entry` that `params` may reuse; a null plan when none.
  static util::Result<Lookup> Choose(Entry* entry,
                                     const std::vector<storage::Value>& params,
                                     const Catalog& catalog);

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Key> lru_;  // front = most recent
  std::map<Key, Entry> entries_;
  Stats stats_;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PLAN_CACHE_H_
