// Simulated ligand/compound database (ChEMBL/DrugBank-style): serves
// LigandRecords with SMILES plus precomputed properties.

#ifndef DRUGTREE_INTEGRATION_LIGAND_SOURCE_H_
#define DRUGTREE_INTEGRATION_LIGAND_SOURCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "chem/properties.h"
#include "chem/synthetic_ligands.h"
#include "integration/source.h"
#include "util/result.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {

/// What the ligand database serves per compound.
struct LigandEntry {
  chem::LigandRecord record;
  chem::MolecularProperties properties;

  uint64_t ApproxBytes() const {
    return record.ligand_id.size() + record.name.size() +
           record.smiles.size() + sizeof(chem::MolecularProperties) + 32;
  }
};

class LigandSource : public RemoteSource {
 public:
  /// Generates `num_ligands` compounds deterministically.
  static util::Result<LigandSource> Create(int num_ligands,
                                           const chem::LigandGenParams& params,
                                           SimulatedNetwork* network,
                                           util::Rng* rng);

  /// One compound by id; one request. An unknown id is a NotFound that
  /// still costs a round trip.
  Deferred<util::Result<LigandEntry>> FetchById(const std::string& ligand_id);

  /// Bulk export; one request.
  Deferred<std::vector<LigandEntry>> FetchAll();

  /// Catalog of ids; one cheap request.
  Deferred<std::vector<std::string>> ListIds();

  size_t NumRecords() const { return entries_.size(); }

 private:
  LigandSource(std::string name, SimulatedNetwork* network)
      : RemoteSource(std::move(name), network) {}

  std::vector<LigandEntry> entries_;
  std::unordered_map<std::string, size_t> by_id_;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_LIGAND_SOURCE_H_
