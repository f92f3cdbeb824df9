// Mediator: the data-integration layer. Pulls from the three simulated
// sources, resolves cross-database conflicts, and materializes the relational
// tables the query engine runs over. The fetch strategy (per-record vs
// batched, cached vs not) is configurable — this is exactly the axis
// experiment E3 sweeps.
//
// Each cached fetch (GetProtein, GetActivities, GetFamily) has one form: it
// returns a Deferred that lands at once on a cache hit and when the source's
// request completes on a miss. Callers block with Await or overlap fetches
// through a FetchWindow; per-record integration runs every record through a
// window as wide as the link's channels, so one channel is the serial path.

#ifndef DRUGTREE_INTEGRATION_MEDIATOR_H_
#define DRUGTREE_INTEGRATION_MEDIATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "integration/activity_source.h"
#include "integration/ligand_source.h"
#include "integration/protein_source.h"
#include "integration/semantic_cache.h"
#include "obs/resource_tracker.h"
#include "storage/table.h"
#include "util/result.h"

namespace drugtree {
namespace integration {

/// Fetch strategy knobs.
struct MediatorOptions {
  /// Batched requests (one round trip for many records) vs one request per
  /// record — the dominant integration cost factor.
  bool batch_requests = true;

  /// Consult / populate the semantic cache (may be null in which case this
  /// is ignored).
  bool use_cache = true;
};

/// The integrated relational snapshot. Schemas:
///   proteins(accession S, name S, family S, organism S, seq_len I,
///            sequence S)
///   ligands(ligand_id S, name S, smiles S, mw D, logp D, hbd I, hba I,
///           rings I, drug_like B)
///   activities(accession S, ligand_id S, affinity_nm D, assay_type S,
///              source_db S)
struct IntegratedDataset {
  std::unique_ptr<storage::Table> proteins;
  std::unique_ptr<storage::Table> ligands;
  std::unique_ptr<storage::Table> activities;
};

/// Schema factories shared by the mediator and tests.
storage::Schema ProteinTableSchema();
storage::Schema LigandTableSchema();
storage::Schema ActivityTableSchema();

/// Bookkeeping of IntegrateAll's per-record fetch windows.
struct MediatorAsyncStats {
  /// Highest number of simultaneously in-flight requests observed.
  int peak_in_flight = 0;
  /// Requests issued through the fetch window (cache hits issue none).
  uint64_t async_requests = 0;
};

class Mediator {
 public:
  /// All pointers are borrowed and must outlive the mediator. `cache` may be
  /// null (disables caching regardless of options).
  Mediator(ProteinSource* proteins, LigandSource* ligands,
           ActivitySource* activities, SemanticCache* cache)
      : protein_source_(proteins),
        ligand_source_(ligands),
        activity_source_(activities),
        cache_(cache) {}

  /// Full integration: fetches everything, resolves duplicate activity
  /// measurements (same accession+ligand+assay from different databases are
  /// merged to their geometric-mean affinity with provenance "merged"),
  /// and loads the three tables.
  util::Result<IntegratedDataset> IntegrateAll(const MediatorOptions& options);

  /// Fetches one protein record, via cache when enabled.
  Deferred<util::Result<ProteinRecord>> GetProtein(
      const std::string& accession, const MediatorOptions& options);

  /// Fetches the activity list of one protein, via cache when enabled.
  Deferred<util::Result<std::vector<ActivityRecord>>> GetActivities(
      const std::string& accession, const MediatorOptions& options);

  /// Fetches all proteins of a family in one batched request and caches each
  /// member under its fine-grained key (the containment trick the semantic
  /// cache exists for). The cache is populated at once: in the simulation
  /// the payload is known at submit time, only its arrival is deferred.
  Deferred<util::Result<std::vector<ProteinRecord>>> GetFamily(
      const std::string& family, const MediatorOptions& options);

  /// The simulated link shared by the wrapped sources (may be null).
  SimulatedNetwork* network() const { return protein_source_->network(); }

  /// Stats from the last IntegrateAll run (zero when it fetched in bulk).
  const MediatorAsyncStats& async_stats() const { return async_stats_; }

  /// Accounts IntegrateAll's transient fetch buffers (the record vectors
  /// held between fetch and table load) against a tracker node. Null
  /// detaches; the tracker must outlive the mediator.
  void AttachMemoryTracker(obs::MemoryTracker* tracker) { memory_ = tracker; }

  /// Serialization helpers (exposed for tests and the prefetcher).
  static std::string EncodeProtein(const ProteinRecord& rec);
  static util::Result<ProteinRecord> DecodeProtein(const std::string& blob);
  static std::string EncodeActivities(const std::vector<ActivityRecord>& recs);
  static util::Result<std::vector<ActivityRecord>> DecodeActivities(
      const std::string& blob);

 private:
  bool CacheEnabled(const MediatorOptions& options) const {
    return options.use_cache && cache_ != nullptr;
  }

  /// Runs `fetch` on every key, in order, through a window as wide as the
  /// link's channels (1 without a link), handing each payload to `take`;
  /// the first failed fetch ends the run with its error.
  template <typename Keys, typename Fetch, typename Take>
  util::Status FetchEach(const Keys& keys, Fetch fetch, Take take);

  ProteinSource* protein_source_;
  LigandSource* ligand_source_;
  ActivitySource* activity_source_;
  SemanticCache* cache_;
  MediatorAsyncStats async_stats_;
  obs::MemoryTracker* memory_ = nullptr;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_MEDIATOR_H_
