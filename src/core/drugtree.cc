#include "core/drugtree.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bio/distance.h"
#include "bio/sequence.h"
#include "phylo/newick.h"
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

// Snapshot file, all integers little-endian:
//   [u32 magic][u32 format version]
//   four sections, in order the Newick tree, proteins, ligands, activities,
//   each [u64 payload length][u32 CRC-32 of the payload][payload].
// A table payload is a u64 row count, then storage::EncodeRow of each live
// row in LiveRows() order. A version-1 (page) file has 1 in the version
// word, so it is refused as version 1.
constexpr uint32_t kSnapshotMagic = 0xD27C7263;
constexpr uint32_t kSnapshotVersion = 2;

/// CRC-32 (IEEE 802.3, the zlib checksum: reflected polynomial 0xEDB88320).
uint32_t Crc32(const std::string& data) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (c & 1 ? 0xEDB88320 : 0);
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char byte : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(byte)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void PutFixed(uint64_t v, size_t bytes, std::string* out) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Reads a `bytes`-wide integer at *offset (<= data.size()) and advances
/// past it; false when fewer bytes are left.
bool GetFixed(const std::string& data, size_t bytes, size_t* offset,
              uint64_t* v) {
  if (data.size() - *offset < bytes) return false;
  *v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    *v |= uint64_t{static_cast<uint8_t>(data[*offset + i])} << (8 * i);
  }
  *offset += bytes;
  return true;
}

void PutSection(const std::string& payload, std::string* out) {
  PutFixed(payload.size(), 8, out);
  PutFixed(Crc32(payload), 4, out);
  out->append(payload);
}

std::string EncodeTable(const storage::Table& table) {
  std::vector<storage::RowId> live = table.LiveRows();
  std::string out;
  PutFixed(live.size(), 8, &out);
  for (storage::RowId id : live) storage::EncodeRow(table.row(id), &out);
  return out;
}

/// Reads the section at *offset: its length must fit the file and its
/// payload must match its checksum.
util::Result<std::string> GetSection(const std::string& file, const char* name,
                                     size_t* offset) {
  uint64_t length = 0;
  uint64_t crc = 0;
  if (!GetFixed(file, 8, offset, &length) || !GetFixed(file, 4, offset, &crc)) {
    return util::Status::ParseError(
        util::StringPrintf("snapshot: truncated %s section header", name));
  }
  if (length > file.size() - *offset) {
    return util::Status::ParseError(util::StringPrintf(
        "snapshot: %s section runs past the end of the file", name));
  }
  std::string payload = file.substr(*offset, length);
  *offset += length;
  if (Crc32(payload) != crc) {
    return util::Status::ParseError(
        util::StringPrintf("snapshot: %s section checksum mismatch", name));
  }
  return payload;
}

/// Appends the rows of a table section to `table`, each through Insert's
/// schema check; the rows must fill the payload exactly.
util::Status DecodeTable(const std::string& payload, storage::Table* table) {
  size_t offset = 0;
  uint64_t rows = 0;
  if (!GetFixed(payload, 8, &offset, &rows)) {
    return util::Status::ParseError("snapshot: " + table->name() +
                                    " section has no row count");
  }
  for (uint64_t r = 0; r < rows; ++r) {
    DRUGTREE_ASSIGN_OR_RETURN(storage::Row row,
                              storage::DecodeRow(payload, &offset));
    DRUGTREE_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
  }
  if (offset != payload.size()) {
    return util::Status::ParseError("snapshot: " + table->name() +
                                    " section has bytes after its rows");
  }
  return util::Status::OK();
}

/// Writes `data` to `path + ".tmp"`, then renames it over `path`, so a
/// failed save leaves the file at `path` as it was.
util::Status ReplaceFile(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot create " + tmp);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();  // sets failbit when the buffered bytes cannot be written
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IoError("cannot write " + path);
  }
  return util::Status::OK();
}

/// The whole file at `path`; NotFound, creating nothing, when there is none.
util::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      return util::Status::NotFound("no snapshot at " + path);
    }
    return util::Status::IoError("cannot open " + path);
  }
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

util::Status DrugTree::SaveSnapshot(const std::string& path) {
  std::string file;
  PutFixed(kSnapshotMagic, 4, &file);
  PutFixed(kSnapshotVersion, 4, &file);
  PutSection(phylo::WriteNewick(tree_), &file);
  for (const storage::Table* table : {dataset_.proteins.get(),
                                      dataset_.ligands.get(),
                                      dataset_.activities.get()}) {
    PutSection(EncodeTable(*table), &file);
  }
  return ReplaceFile(path, file);
}

util::Result<std::unique_ptr<DrugTree>> DrugTree::LoadSnapshot(
    const std::string& path, util::Clock* clock) {
  if (clock == nullptr) {
    return util::Status::InvalidArgument("clock must not be null");
  }
  DRUGTREE_ASSIGN_OR_RETURN(std::string file, ReadFile(path));
  size_t offset = 0;
  uint64_t magic = 0;
  uint64_t version = 0;
  if (!GetFixed(file, 4, &offset, &magic) ||
      !GetFixed(file, 4, &offset, &version)) {
    return util::Status::ParseError("truncated snapshot header in " + path);
  }
  if (magic != kSnapshotMagic) {
    return util::Status::ParseError("bad snapshot magic in " + path);
  }
  if (version != kSnapshotVersion) {
    return util::Status::ParseError(util::StringPrintf(
        "snapshot %s has format version %llu; this build reads version %u",
        path.c_str(), static_cast<unsigned long long>(version),
        kSnapshotVersion));
  }
  std::string sections[4];
  const char* names[4] = {"newick", "proteins", "ligands", "activities"};
  for (int s = 0; s < 4; ++s) {
    DRUGTREE_ASSIGN_OR_RETURN(sections[s], GetSection(file, names[s], &offset));
  }
  if (offset != file.size()) {
    return util::Status::ParseError("bytes after the last section of " + path);
  }

  auto dt = std::unique_ptr<DrugTree>(new DrugTree());
  dt->clock_ = clock;
  DRUGTREE_ASSIGN_OR_RETURN(dt->tree_, phylo::ParseNewick(sections[0]));
  dt->dataset_.proteins = std::make_unique<storage::Table>(
      "proteins", integration::ProteinTableSchema());
  DRUGTREE_RETURN_IF_ERROR(
      DecodeTable(sections[1], dt->dataset_.proteins.get()));
  dt->dataset_.ligands = std::make_unique<storage::Table>(
      "ligands", integration::LigandTableSchema());
  DRUGTREE_RETURN_IF_ERROR(
      DecodeTable(sections[2], dt->dataset_.ligands.get()));
  dt->dataset_.activities = std::make_unique<storage::Table>(
      "activities", integration::ActivityTableSchema());
  DRUGTREE_RETURN_IF_ERROR(
      DecodeTable(sections[3], dt->dataset_.activities.get()));

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
