// Simulated protein database (UniProt-style): serves ProteinRecords for an
// evolved synthetic family set, with per-request network charges. Each
// fetch schedules one request and returns its Deferred response.

#ifndef DRUGTREE_INTEGRATION_PROTEIN_SOURCE_H_
#define DRUGTREE_INTEGRATION_PROTEIN_SOURCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "bio/synthetic.h"
#include "integration/source.h"
#include "util/result.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {

/// Parameters for populating the simulated protein database.
struct ProteinSourceParams {
  /// Number of independent families; family f gets a label "family-f".
  int num_families = 4;
  /// Taxa per family.
  int taxa_per_family = 16;
  int sequence_length = 120;
};

class ProteinSource : public RemoteSource {
 public:
  /// Builds the source's ground truth deterministically from `rng`.
  static util::Result<ProteinSource> Create(const ProteinSourceParams& params,
                                            SimulatedNetwork* network,
                                            util::Rng* rng);

  /// One accession. An unknown accession is a NotFound that still costs a
  /// round trip.
  Deferred<util::Result<ProteinRecord>> FetchByAccession(
      const std::string& accession);

  /// All records of one family, one request.
  Deferred<std::vector<ProteinRecord>> FetchFamily(const std::string& family);

  /// Every record, one request (bulk export).
  Deferred<std::vector<ProteinRecord>> FetchAll();

  /// All accessions in one cheap catalog request.
  Deferred<std::vector<std::string>> ListAccessions();

  size_t NumRecords() const { return records_.size(); }

  /// Ground-truth generating trees per family (Newick), for E5 accuracy
  /// scoring. Not part of the remote API; no network charge.
  const std::vector<std::string>& true_trees() const { return true_trees_; }

 private:
  ProteinSource(std::string name, SimulatedNetwork* network)
      : RemoteSource(std::move(name), network) {}

  std::vector<ProteinRecord> records_;
  std::unordered_map<std::string, size_t> by_accession_;
  std::vector<std::string> true_trees_;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_PROTEIN_SOURCE_H_
