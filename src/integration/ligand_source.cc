#include "integration/ligand_source.h"

#include "chem/smiles.h"

namespace drugtree {
namespace integration {

util::Result<LigandSource> LigandSource::Create(
    int num_ligands, const chem::LigandGenParams& params,
    SimulatedNetwork* network, util::Rng* rng) {
  DRUGTREE_ASSIGN_OR_RETURN(std::vector<chem::LigandRecord> records,
                            chem::GenerateLigands(num_ligands, params, rng));
  LigandSource src("ligand-db", network);
  for (auto& rec : records) {
    DRUGTREE_ASSIGN_OR_RETURN(chem::Molecule mol,
                              chem::ParseSmiles(rec.smiles));
    LigandEntry entry;
    entry.properties = chem::ComputeProperties(mol);
    entry.record = std::move(rec);
    src.by_id_[entry.record.ligand_id] = src.entries_.size();
    src.entries_.push_back(std::move(entry));
  }
  return src;
}

Deferred<util::Result<LigandEntry>> LigandSource::FetchById(
    const std::string& ligand_id) {
  auto it = by_id_.find(ligand_id);
  if (it == by_id_.end()) {
    return {util::Status::NotFound("no ligand with id " + ligand_id),
            Charge(64)};
  }
  const LigandEntry& e = entries_[it->second];
  return {e, Charge(e.ApproxBytes())};
}

Deferred<std::vector<LigandEntry>> LigandSource::FetchAll() {
  uint64_t bytes = 64;
  for (const auto& e : entries_) bytes += e.ApproxBytes();
  return {entries_, Charge(bytes)};
}

Deferred<std::vector<std::string>> LigandSource::ListIds() {
  std::vector<std::string> out;
  uint64_t bytes = 16;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    out.push_back(e.record.ligand_id);
    bytes += out.back().size();
  }
  return {std::move(out), Charge(bytes)};
}

}  // namespace integration
}  // namespace drugtree
