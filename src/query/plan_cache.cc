#include "query/plan_cache.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace query {
namespace {

/// Marks the ordinal of every tagged literal below `expr` in `present`,
/// and appends each one that stands for a tree node's interval bound to
/// `node_ordinals`, once.
void CollectOrdinals(const Expr& expr, std::vector<bool>* present,
                     std::vector<int>* node_ordinals) {
  if (expr.kind == ExprKind::kLiteral && expr.param_index >= 0) {
    if (static_cast<size_t>(expr.param_index) < present->size()) {
      (*present)[static_cast<size_t>(expr.param_index)] = true;
    }
    if (expr.param_role != ParamRole::kValue &&
        std::find(node_ordinals->begin(), node_ordinals->end(),
                  expr.param_index) == node_ordinals->end()) {
      node_ordinals->push_back(expr.param_index);
    }
  }
  for (const auto& c : expr.children) {
    CollectOrdinals(*c, present, node_ordinals);
  }
}

/// True iff every ordinal 0..n-1 survived optimization. A missing ordinal
/// means a rewrite consumed that literal while planning (folded it or
/// dropped its conjunct), so the template only reproduces correct results
/// for its own parameter values. The same walk records the plan's node
/// ordinals.
bool ComputeRebindable(const LogicalNode& plan, size_t num_params,
                       std::vector<int>* node_ordinals) {
  std::vector<bool> present(num_params, false);
  ForEachExpr(plan, [&](const Expr& e) {
    CollectOrdinals(e, &present, node_ordinals);
  });
  return std::all_of(present.begin(), present.end(), [](bool p) { return p; });
}

bool SameValue(const storage::Value& a, const storage::Value& b) {
  // Stricter than Value::operator== (which equates Int64 42 and Double
  // 42.0): a cached plan may have specialized on the literal's type, so
  // only byte-for-byte-equivalent parameters count as "identical".
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  return a.Compare(b) == 0;
}

bool SameParams(const std::vector<storage::Value>& a,
                const std::vector<storage::Value>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameValue);
}

bool SameTypes(const std::vector<storage::Value>& a,
               const std::vector<storage::Value>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const storage::Value& x, const storage::Value& y) {
        return x.type() == y.type();
      });
}

}  // namespace

uint8_t PlanCache::RuleFlags(const OptimizerOptions& options) {
  return static_cast<uint8_t>(options.enable_constant_folding << 0 |
                              options.enable_tree_rewrite << 1 |
                              options.enable_pushdown << 2 |
                              options.enable_join_reorder << 3 |
                              options.enable_projection_pruning << 4);
}

PlanCache::VersionSignature PlanCache::CaptureVersions(
    const Catalog& catalog, const SelectStatement& stmt) {
  VersionSignature sig;
  sig.catalog_epoch = catalog.epoch();
  sig.tables.reserve(stmt.tables.size());
  for (const TableRef& ref : stmt.tables) {
    auto table = catalog.Lookup(ref.table);
    sig.tables.emplace_back(ref.table,
                            table.ok() ? (*table)->plan_version() : 0);
  }
  return sig;
}

bool PlanCache::IsCurrent(const VersionSignature& versions,
                          const Catalog& catalog) {
  if (versions.catalog_epoch != catalog.epoch()) return false;
  for (const auto& [name, version] : versions.tables) {
    auto table = catalog.Lookup(name);
    if ((table.ok() ? (*table)->plan_version() : 0) != version) return false;
  }
  return true;
}

std::vector<int> PlanCache::Classify(Entry* entry, const LogicalNode& plan,
                                     const ParamBindings& bindings,
                                     const Catalog& catalog) {
  if (entry->classifier == nullptr) {
    entry->classifier = std::make_unique<ScanClassifier>(plan, catalog);
  }
  return entry->classifier->Classify(bindings);
}

util::Result<PlanCache::Lookup> PlanCache::Choose(
    Entry* entry, const std::vector<storage::Value>& params,
    const Catalog& catalog) {
  Lookup lookup;
  std::optional<ParamBindings> bindings;
  if (entry->versions.tables.size() > 1) {
    const Template& first = entry->variants[0];
    DRUGTREE_ASSIGN_OR_RETURN(
        bindings, BindParams(first.node_ordinals, params, catalog));
    lookup.classes = Classify(entry, *first.plan, *bindings, catalog);
  }
  auto v = std::find_if(
      entry->variants.begin(), entry->variants.end(),
      [&lookup](const Template& t) { return t.classes == lookup.classes; });
  if (v == entry->variants.end()) return lookup;
  if (SameParams(v->params, params)) {
    lookup.plan = v->plan;
    return lookup;
  }
  // The template consumed a literal (or the literal types changed):
  // reusing it could return wrong results, so re-plan.
  if (!v->rebindable || !SameTypes(v->params, params)) return lookup;
  if (!bindings) {
    DRUGTREE_ASSIGN_OR_RETURN(bindings,
                              BindParams(v->node_ordinals, params, catalog));
  }
  lookup.plan = v->plan;
  lookup.bindings = std::move(bindings);
  return lookup;
}

util::Result<PlanCache::Lookup> PlanCache::Get(
    const Key& key, const Catalog& catalog,
    const std::vector<storage::Value>& params) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && !IsCurrent(it->second.versions, catalog)) {
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    it = entries_.end();
    ++stats_.invalidations;
  }
  util::Result<Lookup> lookup =
      it == entries_.end() ? Lookup{} : Choose(&it->second, params, catalog);
  if (!lookup.ok() || lookup->plan == nullptr) {
    ++stats_.misses;
    return lookup;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  if (lookup->bindings) ++stats_.rebinds;
  return lookup;
}

void PlanCache::Install(const Key& key, LogicalPtr plan,
                        std::vector<storage::Value> params,
                        VersionSignature versions, const Catalog& catalog) {
  Template tmpl;
  tmpl.rebindable =
      ComputeRebindable(*plan, params.size(), &tmpl.node_ordinals);
  tmpl.plan = std::move(plan);
  tmpl.params = std::move(params);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  const bool fresh = it != entries_.end() && it->second.versions == versions;
  // A fresh entry's classifier, or one this install builds for the entry.
  Entry scratch;
  Entry* classifying = fresh ? &it->second : &scratch;
  if (versions.tables.size() > 1) {
    // Classify the way Get will: through the entry's first template, so a
    // template that consumed a literal still lands where lookups find it.
    const Template& first = fresh ? it->second.variants[0] : tmpl;
    util::Result<ParamBindings> bindings =
        BindParams(first.node_ordinals, tmpl.params, catalog);
    if (!bindings.ok()) return;
    tmpl.classes = Classify(classifying, *first.plan, *bindings, catalog);
  }
  if (it != entries_.end() && !fresh) {
    // The entry went stale between this planner's Get and Install (or a
    // concurrent slot raced a catalog bump): start its variants over under
    // the fresh signature.
    it->second.variants.clear();
    it->second.classifier = std::move(scratch.classifier);
    it->second.versions = std::move(versions);
  }
  if (it == entries_.end()) {
    lru_.push_front(key);
    Entry entry;
    entry.versions = std::move(versions);
    entry.classifier = std::move(scratch.classifier);
    entry.lru_it = lru_.begin();
    it = entries_.emplace(key, std::move(entry)).first;
    while (entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  std::vector<Template>& variants = it->second.variants;
  auto v = std::find_if(
      variants.begin(), variants.end(),
      [&tmpl](const Template& t) { return t.classes == tmpl.classes; });
  if (v != variants.end()) {
    *v = std::move(tmpl);
  } else {
    if (variants.size() == kMaxVariantsPerEntry) {
      variants.erase(variants.begin());
      ++stats_.variant_evictions;
    }
    variants.push_back(std::move(tmpl));
  }
  ++stats_.installs;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string PlanCache::StatszJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t variants = 0;
  for (const auto& kv : entries_) variants += kv.second.variants.size();
  return util::StringPrintf(
      "{\"entries\":%zu,\"variants\":%zu,\"capacity\":%zu,\"hits\":%lld,"
      "\"rebinds\":%lld,\"misses\":%lld,\"invalidations\":%lld,"
      "\"installs\":%lld,\"variant_evictions\":%lld}",
      entries_.size(), variants, capacity_, (long long)stats_.hits,
      (long long)stats_.rebinds, (long long)stats_.misses,
      (long long)stats_.invalidations, (long long)stats_.installs,
      (long long)stats_.variant_evictions);
}

}  // namespace query
}  // namespace drugtree
