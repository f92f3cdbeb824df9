// DrugTree: the system facade. One call builds the whole pipeline —
// simulated sources -> mediator integration -> distance matrix -> tree ->
// interval index -> overlay -> catalog + planner — and the instance then
// answers SQL (with tree predicates), serves mobile sessions, and accepts
// incremental activity updates.

#ifndef DRUGTREE_CORE_DRUGTREE_H_
#define DRUGTREE_CORE_DRUGTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/overlay.h"
#include "integration/activity_source.h"
#include "integration/ligand_source.h"
#include "integration/mediator.h"
#include "integration/network.h"
#include "integration/prefetcher.h"
#include "integration/protein_source.h"
#include "integration/semantic_cache.h"
#include "mobile/device.h"
#include "mobile/session.h"
#include "phylo/builder.h"
#include "phylo/layout.h"
#include "phylo/tree.h"
#include "phylo/tree_index.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "server/server.h"
#include "shard/router.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"

namespace drugtree {
namespace core {

struct BuildOptions {
  uint64_t seed = 42;

  // Synthetic data scale.
  int num_families = 4;
  int taxa_per_family = 16;
  int sequence_length = 120;
  int num_ligands = 400;
  double activities_per_protein = 6.0;

  // Tree construction.
  phylo::TreeMethod tree_method = phylo::TreeMethod::kNeighborJoining;
  /// k-mer distances (fast) vs full alignment distances (accurate, O(n^2)
  /// alignments).
  bool use_alignment_distance = false;
  int kmer_k = 3;

  // Integration behaviour. The source link has default NetworkParams and
  // the semantic cache 8 MiB.
  bool batch_requests = true;
  /// Channels of the source link, which is also the in-flight window of
  /// per-record integration. 1 = serial (identical behaviour to historical
  /// builds).
  int fetch_concurrency = 1;

  // Query engine.
  uint64_t result_cache_bytes = 16 * 1024 * 1024;
};

class DrugTree {
 public:
  /// Builds a full DrugTree instance over `clock` (SimulatedClock in
  /// benchmarks, RealClock::Instance() interactively).
  static util::Result<std::unique_ptr<DrugTree>> Build(
      const BuildOptions& options, util::Clock* clock);

  // Query API -----------------------------------------------------------

  /// Runs one SQL statement, reusing this instance's cached plans (see
  /// plan_cache()). Registered tables: proteins, ligands,
  /// activities, tree_nodes, node_overlay. Tree predicates:
  /// SUBTREE(node_col, 'leaf-or-node-name'|node_id),
  /// ANCESTOR_OF(node_col, ...), TREE_DEPTH(node_col), TREE_DIST(a, b).
  util::Result<query::QueryOutcome> Query(const std::string& sql,
                                          const query::PlannerOptions& options =
                                              query::PlannerOptions());

  /// Applies a fresh assay measurement: appends to the activities table,
  /// updates the in-memory overlay aggregates along the leaf's root path
  /// (the mobile annotation), and bumps the data epoch (invalidating cached
  /// results). The node_overlay rows do not change.
  util::Status AddActivity(const std::string& accession,
                           const std::string& ligand_id, double affinity_nm,
                           const std::string& assay_type = "IC50");

  // Storage encodings ----------------------------------------------------

  /// (Re)builds compressed columnar segments for every catalog table whose
  /// snapshot is missing or stale; fresh snapshots are kept, along with the
  /// plans cached against them. Called automatically at wiring time; call
  /// again after mutations (AddActivity marks the activities snapshot
  /// stale, which silently falls its scans back to the plain row path
  /// until the next rebuild).
  util::Status BuildEncodedSegments();

  /// Drops all encoded snapshots; scans revert to the plain paths. Benches
  /// use this as the uncompressed control arm.
  void DropEncodedSegments();

  // Persistence ---------------------------------------------------------

  /// Writes a self-contained snapshot (the three integrated base tables
  /// plus the tree in Newick form) to a single page file at `path`,
  /// overwriting any existing snapshot.
  util::Status SaveSnapshot(const std::string& path);

  /// Reconstructs a queryable DrugTree from a snapshot. The loaded instance
  /// has no remote sources (protein_source() etc. return null); the query,
  /// overlay, update, and mobile APIs are fully functional.
  static util::Result<std::unique_ptr<DrugTree>> LoadSnapshot(
      const std::string& path, util::Clock* clock);

  // Mobile API ----------------------------------------------------------

  /// Creates a trace-driven mobile session bound to this instance; overlay
  /// queries inside the session run through the (optimized) planner.
  mobile::MobileSession MakeSession(const mobile::DeviceProfile& device,
                                    const mobile::SessionOptions& options,
                                    const query::PlannerOptions& query_options);

  // Serving API ----------------------------------------------------------

  /// The SQL a session issues for the ligand overlay of a focused subtree
  /// (what MakeSession's direct callback runs internally). Exposed so the
  /// serving layer can issue the identical statement as a QueryRequest.
  std::string OverlayQuerySql(phylo::NodeId node) const;

  /// Creates a multi-session server over this instance's catalog. `clock`
  /// defaults to the instance clock; pass RealClock::Instance() when real
  /// deadlines are wanted over a simulated-clock build. The server must not
  /// outlive this DrugTree, and must be drained before AddActivity.
  std::unique_ptr<server::DrugTreeServer> MakeServer(
      const server::ServerOptions& options = server::ServerOptions(),
      util::Clock* clock = nullptr);

  /// Creates a sharded, replicated serving tier over this instance's data:
  /// the relations are interval-partitioned into options.num_shards ranges
  /// (ligands replicated), each range served by replicas_per_shard
  /// DrugTreeServer replicas, fronted by a scatter-gather ShardRouter whose
  /// fallback coordinator serves the full catalog. `clock` defaults to the
  /// instance clock. The router must not outlive this DrugTree, and every
  /// replica must be drained before AddActivity (partitions are snapshots:
  /// catalog mutations after creation are not reflected in the shards).
  util::Result<std::unique_ptr<shard::ShardRouter>> MakeShardRouter(
      const shard::RouterOptions& options = shard::RouterOptions(),
      util::Clock* clock = nullptr);

  /// Creates a mobile session whose overlay queries go through `server` as
  /// kInteractive requests with `overlay_deadline_micros` budgets, instead
  /// of calling the planner directly.
  mobile::MobileSession MakeSession(const mobile::DeviceProfile& device,
                                    const mobile::SessionOptions& options,
                                    const query::PlannerOptions& query_options,
                                    server::DrugTreeServer* server,
                                    uint64_t session_id,
                                    int64_t overlay_deadline_micros = 150'000);

  /// Generates an interaction trace on this tree.
  std::vector<mobile::Action> MakeTrace(const mobile::TraceParams& params,
                                        uint64_t seed);

  // Introspection -------------------------------------------------------

  const phylo::Tree& tree() const { return tree_; }
  const phylo::TreeIndex& tree_index() const { return *tree_index_; }
  const phylo::TreeLayout& layout() const { return *layout_; }
  Overlay* overlay() { return overlay_.get(); }
  query::Catalog* catalog() { return &catalog_; }
  query::ResultCache* result_cache() { return result_cache_.get(); }
  /// The plan cache of Query and of the sessions MakeSession wires to this
  /// instance's planner (a server has its own).
  query::PlanCache* plan_cache() { return plan_cache_.get(); }
  integration::SemanticCache* semantic_cache() { return semantic_cache_.get(); }
  integration::SimulatedNetwork* source_network() { return network_.get(); }
  integration::ProteinSource* protein_source() { return protein_source_.get(); }
  integration::LigandSource* ligand_source() { return ligand_source_.get(); }
  integration::ActivitySource* activity_source() {
    return activity_source_.get();
  }
  integration::Mediator* mediator() { return mediator_.get(); }
  storage::Table* ligands() { return dataset_.ligands.get(); }
  storage::Table* activities() { return dataset_.activities.get(); }

 private:
  DrugTree() = default;

  /// Shared tail of Build/LoadSnapshot: from a populated `tree_` and
  /// `dataset_`, constructs the index, layout, overlay, secondary indexes,
  /// catalog bindings, result cache, and planner.
  util::Status FinishWiring(uint64_t result_cache_bytes);

  util::Clock* clock_ = nullptr;
  /// Root of the integration layer's memory accounting (semantic cache +
  /// mediator fetch buffers as child nodes); server trees track query-side
  /// memory separately. Declared before the components attached to it so
  /// it is destroyed last.
  obs::MemoryTracker integration_tracker_{"integration"};
  std::unique_ptr<integration::SimulatedNetwork> network_;
  std::unique_ptr<integration::ProteinSource> protein_source_;
  std::unique_ptr<integration::LigandSource> ligand_source_;
  std::unique_ptr<integration::ActivitySource> activity_source_;
  std::unique_ptr<integration::SemanticCache> semantic_cache_;
  std::unique_ptr<integration::Mediator> mediator_;
  integration::IntegratedDataset dataset_;

  phylo::Tree tree_;
  std::unique_ptr<phylo::TreeIndex> tree_index_;
  std::unique_ptr<phylo::TreeLayout> layout_;
  std::unique_ptr<Overlay> overlay_;

  query::Catalog catalog_;
  std::unique_ptr<query::ResultCache> result_cache_;
  std::unique_ptr<query::PlanCache> plan_cache_;
  std::unique_ptr<query::Planner> planner_;
};

}  // namespace core
}  // namespace drugtree

#endif  // DRUGTREE_CORE_DRUGTREE_H_
