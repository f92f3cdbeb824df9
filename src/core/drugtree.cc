#include "core/drugtree.h"

#include <algorithm>
#include <cstdio>

#include "bio/distance.h"
#include "bio/sequence.h"
#include "phylo/newick.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/string_util.h"

namespace drugtree {
namespace core {

using storage::Value;

namespace {

/// Capacity of the instance's semantic cache of source responses.
constexpr uint64_t kSemanticCacheBytes = 8 * 1024 * 1024;

}  // namespace

util::Result<std::unique_ptr<DrugTree>> DrugTree::Build(
    const BuildOptions& options, util::Clock* clock) {
  if (clock == nullptr) {
    return util::Status::InvalidArgument("clock must not be null");
  }
  auto dt = std::unique_ptr<DrugTree>(new DrugTree());
  dt->clock_ = clock;
  util::Rng rng(options.seed);

  // 1. Simulated remote sources.
  integration::NetworkParams np;
  np.max_concurrency = std::max(1, options.fetch_concurrency);
  dt->network_ = std::make_unique<integration::SimulatedNetwork>(
      clock, np, options.seed ^ 0x5EEDULL);
  integration::ProteinSourceParams pp;
  pp.num_families = options.num_families;
  pp.taxa_per_family = options.taxa_per_family;
  pp.sequence_length = options.sequence_length;
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::ProteinSource ps,
      integration::ProteinSource::Create(pp, dt->network_.get(), &rng));
  dt->protein_source_ =
      std::make_unique<integration::ProteinSource>(std::move(ps));

  chem::LigandGenParams lp;
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::LigandSource ls,
      integration::LigandSource::Create(options.num_ligands, lp,
                                        dt->network_.get(), &rng));
  dt->ligand_source_ =
      std::make_unique<integration::LigandSource>(std::move(ls));

  // The activity source is generated over the other two sources' catalogs,
  // read through their (costed) catalog requests.
  integration::SimulatedNetwork* net = dt->network_.get();
  std::vector<std::string> accessions =
      integration::Await(net, dt->protein_source_->ListAccessions());
  std::vector<std::string> ligand_ids =
      integration::Await(net, dt->ligand_source_->ListIds());

  integration::ActivityGenParams ap;
  ap.activities_per_protein = options.activities_per_protein;
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::ActivitySource as,
      integration::ActivitySource::Create(accessions, ligand_ids, ap,
                                          dt->network_.get(), &rng));
  dt->activity_source_ =
      std::make_unique<integration::ActivitySource>(std::move(as));

  // 2. Mediator integration.
  dt->semantic_cache_ =
      std::make_unique<integration::SemanticCache>(kSemanticCacheBytes);
  dt->mediator_ = std::make_unique<integration::Mediator>(
      dt->protein_source_.get(), dt->ligand_source_.get(),
      dt->activity_source_.get(), dt->semantic_cache_.get());
  dt->semantic_cache_->AttachMemoryTracker(
      dt->integration_tracker_.GetOrCreateChild("semantic_cache"));
  dt->mediator_->AttachMemoryTracker(
      dt->integration_tracker_.GetOrCreateChild("mediator"));
  integration::MediatorOptions mo;
  mo.batch_requests = options.batch_requests;
  DRUGTREE_ASSIGN_OR_RETURN(dt->dataset_, dt->mediator_->IntegrateAll(mo));

  // 3. Distance matrix + phylogeny over all integrated proteins.
  std::vector<bio::Sequence> seqs;
  {
    const storage::Table& pt = *dt->dataset_.proteins;
    DRUGTREE_ASSIGN_OR_RETURN(size_t acc_col, pt.schema().IndexOf("accession"));
    DRUGTREE_ASSIGN_OR_RETURN(size_t seq_col, pt.schema().IndexOf("sequence"));
    for (storage::RowId rid : pt.LiveRows()) {
      const storage::Row& row = pt.row(rid);
      DRUGTREE_ASSIGN_OR_RETURN(
          bio::Sequence s,
          bio::Sequence::Create(row[acc_col].AsString(),
                                row[seq_col].AsString()));
      seqs.push_back(std::move(s));
    }
  }
  bio::DistanceMatrix dist;
  if (options.use_alignment_distance) {
    DRUGTREE_ASSIGN_OR_RETURN(dist, bio::AlignmentDistanceMatrix(seqs));
  } else {
    DRUGTREE_ASSIGN_OR_RETURN(dist,
                              bio::KmerDistanceMatrix(seqs, options.kmer_k));
  }
  DRUGTREE_ASSIGN_OR_RETURN(dt->tree_,
                            phylo::BuildTree(dist, options.tree_method));
  DRUGTREE_RETURN_IF_ERROR(dt->FinishWiring(options.result_cache_bytes));
  return dt;
}

util::Status DrugTree::FinishWiring(uint64_t result_cache_bytes) {
  DRUGTREE_ASSIGN_OR_RETURN(phylo::TreeIndex index,
                            phylo::TreeIndex::Build(tree_));
  tree_index_ = std::make_unique<phylo::TreeIndex>(std::move(index));
  DRUGTREE_ASSIGN_OR_RETURN(phylo::TreeLayout layout,
                            phylo::TreeLayout::Compute(tree_));
  layout_ = std::make_unique<phylo::TreeLayout>(std::move(layout));

  DRUGTREE_ASSIGN_OR_RETURN(
      overlay_, Overlay::Build(&tree_, tree_index_.get(), *dataset_.proteins,
                               *dataset_.activities));
  // Index the base relations the workloads hit hard.
  DRUGTREE_RETURN_IF_ERROR(dataset_.activities->CreateIndex(
      "accession", storage::IndexKind::kHash));
  DRUGTREE_RETURN_IF_ERROR(dataset_.activities->CreateIndex(
      "affinity_nm", storage::IndexKind::kBTree));
  DRUGTREE_RETURN_IF_ERROR(dataset_.ligands->CreateIndex(
      "ligand_id", storage::IndexKind::kHash));
  DRUGTREE_RETURN_IF_ERROR(dataset_.activities->Analyze());
  DRUGTREE_RETURN_IF_ERROR(dataset_.ligands->Analyze());

  DRUGTREE_RETURN_IF_ERROR(catalog_.Register(overlay_->proteins()));
  DRUGTREE_RETURN_IF_ERROR(catalog_.Register(dataset_.ligands.get()));
  DRUGTREE_RETURN_IF_ERROR(catalog_.Register(dataset_.activities.get()));
  DRUGTREE_RETURN_IF_ERROR(catalog_.Register(overlay_->tree_nodes()));
  DRUGTREE_RETURN_IF_ERROR(catalog_.Register(overlay_->node_overlay()));
  catalog_.SetTree(&tree_, tree_index_.get());
  DRUGTREE_RETURN_IF_ERROR(
      catalog_.BindTree("proteins", {"node_id", "pre", ""}));
  DRUGTREE_RETURN_IF_ERROR(
      catalog_.BindTree("tree_nodes", {"node_id", "pre", "post"}));
  DRUGTREE_RETURN_IF_ERROR(
      catalog_.BindTree("node_overlay", {"node_id", "pre", "post"}));

  result_cache_ = std::make_unique<query::ResultCache>(result_cache_bytes);
  plan_cache_ = std::make_unique<query::PlanCache>();
  planner_ = std::make_unique<query::Planner>(&catalog_, result_cache_.get(),
                                              plan_cache_.get());
  // Compress the now-immutable base tables; scans run directly on the
  // encoded form until the next mutation marks a snapshot stale.
  DRUGTREE_RETURN_IF_ERROR(BuildEncodedSegments());
  return util::Status::OK();
}

util::Status DrugTree::BuildEncodedSegments() {
  // Each table keeps a snapshot that is still fresh, so after a write only
  // the tables it touched re-encode.
  for (const auto& [name, table] : catalog_.tables()) {
    (void)name;
    DRUGTREE_RETURN_IF_ERROR(table->BuildEncodedSegments());
  }
  return util::Status::OK();
}

void DrugTree::DropEncodedSegments() {
  for (const auto& [name, table] : catalog_.tables()) {
    (void)name;
    table->DropEncodedSegments();
  }
}

namespace {

// Snapshot superblock layout on page 0:
//   [u32 magic][u32 meta_dir][u32 proteins_dir][u32 ligands_dir]
//   [u32 activities_dir]
constexpr uint32_t kSnapshotMagic = 0xD27C7263;

}  // namespace

util::Status DrugTree::SaveSnapshot(const std::string& path) {
  std::remove(path.c_str());
  DRUGTREE_ASSIGN_OR_RETURN(std::unique_ptr<storage::DiskManager> disk,
                            storage::DiskManager::Open(path));
  storage::BufferPool pool(disk.get(), 64);
  DRUGTREE_ASSIGN_OR_RETURN(storage::PageGuard super, pool.Allocate());
  if (super->id() != 0) {
    return util::Status::Internal("snapshot superblock must be page 0");
  }

  // Metadata heap: record 0 is the tree in Newick form.
  DRUGTREE_ASSIGN_OR_RETURN(storage::HeapFile meta,
                            storage::HeapFile::Create(&pool));
  std::string newick = phylo::WriteNewick(tree_);
  // Large trees exceed one page; chunk the Newick string.
  constexpr size_t kChunk = 3000;
  uint32_t chunks = 0;
  for (size_t off = 0; off < newick.size() || chunks == 0; off += kChunk) {
    DRUGTREE_RETURN_IF_ERROR(
        meta.Insert(newick.substr(off, kChunk)).status());
    ++chunks;
  }

  DRUGTREE_ASSIGN_OR_RETURN(storage::PageId p_dir,
                            dataset_.proteins->SaveTo(&pool));
  DRUGTREE_ASSIGN_OR_RETURN(storage::PageId l_dir,
                            dataset_.ligands->SaveTo(&pool));
  DRUGTREE_ASSIGN_OR_RETURN(storage::PageId a_dir,
                            dataset_.activities->SaveTo(&pool));

  super->WriteAt<uint32_t>(0, kSnapshotMagic);
  super->WriteAt<uint32_t>(4, meta.directory_page());
  super->WriteAt<uint32_t>(8, p_dir);
  super->WriteAt<uint32_t>(12, l_dir);
  super->WriteAt<uint32_t>(16, a_dir);
  return pool.FlushAll();
}

util::Result<std::unique_ptr<DrugTree>> DrugTree::LoadSnapshot(
    const std::string& path, util::Clock* clock) {
  if (clock == nullptr) {
    return util::Status::InvalidArgument("clock must not be null");
  }
  DRUGTREE_ASSIGN_OR_RETURN(std::unique_ptr<storage::DiskManager> disk,
                            storage::DiskManager::Open(path));
  if (disk->NumPages() == 0) {
    return util::Status::NotFound("no snapshot at " + path);
  }
  storage::BufferPool pool(disk.get(), 64);
  uint32_t meta_dir, p_dir, l_dir, a_dir;
  {
    DRUGTREE_ASSIGN_OR_RETURN(storage::PageGuard super, pool.Fetch(0));
    if (super->ReadAt<uint32_t>(0) != kSnapshotMagic) {
      return util::Status::ParseError("bad snapshot magic in " + path);
    }
    meta_dir = super->ReadAt<uint32_t>(4);
    p_dir = super->ReadAt<uint32_t>(8);
    l_dir = super->ReadAt<uint32_t>(12);
    a_dir = super->ReadAt<uint32_t>(16);
  }

  auto dt = std::unique_ptr<DrugTree>(new DrugTree());
  dt->clock_ = clock;

  DRUGTREE_ASSIGN_OR_RETURN(storage::HeapFile meta,
                            storage::HeapFile::Open(&pool, meta_dir));
  std::string newick;
  DRUGTREE_RETURN_IF_ERROR(
      meta.Scan([&newick](const storage::RecordId&, const std::string& rec) {
        newick += rec;
        return util::Status::OK();
      }));
  DRUGTREE_ASSIGN_OR_RETURN(dt->tree_, phylo::ParseNewick(newick));

  dt->dataset_.proteins = std::make_unique<storage::Table>(
      "proteins", integration::ProteinTableSchema());
  DRUGTREE_RETURN_IF_ERROR(dt->dataset_.proteins->LoadFrom(&pool, p_dir));
  dt->dataset_.ligands = std::make_unique<storage::Table>(
      "ligands", integration::LigandTableSchema());
  DRUGTREE_RETURN_IF_ERROR(dt->dataset_.ligands->LoadFrom(&pool, l_dir));
  dt->dataset_.activities = std::make_unique<storage::Table>(
      "activities", integration::ActivityTableSchema());
  DRUGTREE_RETURN_IF_ERROR(dt->dataset_.activities->LoadFrom(&pool, a_dir));

  DRUGTREE_RETURN_IF_ERROR(
      dt->FinishWiring(BuildOptions().result_cache_bytes));
  return dt;
}

util::Result<query::QueryOutcome> DrugTree::Query(
    const std::string& sql, const query::PlannerOptions& options) {
  return planner_->Run(sql, options);
}

util::Status DrugTree::AddActivity(const std::string& accession,
                                   const std::string& ligand_id,
                                   double affinity_nm,
                                   const std::string& assay_type) {
  // Validate before inserting, so a rejected write changes nothing.
  DRUGTREE_RETURN_IF_ERROR(overlay_->ValidateActivity(accession, affinity_nm));
  storage::Row row = {Value::String(accession), Value::String(ligand_id),
                      Value::Double(affinity_nm), Value::String(assay_type),
                      Value::String("live")};
  DRUGTREE_RETURN_IF_ERROR(dataset_.activities->Insert(std::move(row)).status());
  DRUGTREE_RETURN_IF_ERROR(overlay_->ApplyActivity(accession, affinity_nm));
  catalog_.BumpEpoch();
  return util::Status::OK();
}

std::string DrugTree::OverlayQuerySql(phylo::NodeId node) const {
  return util::StringPrintf(
      "SELECT o.node_id, o.activity_count, o.best_affinity_nm "
      "FROM node_overlay o WHERE SUBTREE(o.node_id, %d) "
      "ORDER BY o.best_affinity_nm LIMIT 50",
      node);
}

mobile::MobileSession DrugTree::MakeSession(
    const mobile::DeviceProfile& device, const mobile::SessionOptions& options,
    const query::PlannerOptions& query_options) {
  mobile::OverlayQueryFn overlay_fn =
      [this, query_options](phylo::NodeId node) -> util::Result<uint64_t> {
    DRUGTREE_ASSIGN_OR_RETURN(
        query::QueryOutcome outcome,
        planner_->Run(OverlayQuerySql(node), query_options));
    return outcome.result.ApproxBytes();
  };
  return mobile::MobileSession(&tree_, tree_index_.get(), layout_.get(),
                               overlay_->AnnotationVector(), device, clock_,
                               options, overlay_fn);
}

std::unique_ptr<server::DrugTreeServer> DrugTree::MakeServer(
    const server::ServerOptions& options, util::Clock* clock) {
  return std::make_unique<server::DrugTreeServer>(
      &catalog_, clock != nullptr ? clock : clock_, options);
}

util::Result<std::unique_ptr<shard::ShardRouter>> DrugTree::MakeShardRouter(
    const shard::RouterOptions& options, util::Clock* clock) {
  shard::ShardSourceTables sources;
  sources.proteins = overlay_->proteins();
  sources.tree_nodes = overlay_->tree_nodes();
  sources.node_overlay = overlay_->node_overlay();
  sources.activities = dataset_.activities.get();
  sources.ligands = dataset_.ligands.get();
  return shard::ShardRouter::Create(&tree_, tree_index_.get(), sources,
                                    &catalog_, clock != nullptr ? clock : clock_,
                                    options);
}

mobile::MobileSession DrugTree::MakeSession(
    const mobile::DeviceProfile& device, const mobile::SessionOptions& options,
    const query::PlannerOptions& query_options,
    server::DrugTreeServer* server, uint64_t session_id,
    int64_t overlay_deadline_micros) {
  mobile::ServedQueryConfig served;
  served.server = server;
  served.session_id = session_id;
  served.overlay_deadline_micros = overlay_deadline_micros;
  served.planner = query_options;
  served.overlay_sql = [this](phylo::NodeId node) {
    return OverlayQuerySql(node);
  };
  return mobile::MobileSession(&tree_, tree_index_.get(), layout_.get(),
                               overlay_->AnnotationVector(), device, clock_,
                               options, nullptr, std::move(served));
}

std::vector<mobile::Action> DrugTree::MakeTrace(
    const mobile::TraceParams& params, uint64_t seed) {
  util::Rng rng(seed);
  return mobile::GenerateTrace(tree_, *tree_index_, params, &rng);
}

}  // namespace core
}  // namespace drugtree
