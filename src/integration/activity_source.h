// Simulated bioactivity database: assay measurements linking proteins to
// ligands. Activities are generated with family-coherent structure: ligands
// of one chemical family bind proteins of related clades more strongly,
// which is what makes tree-overlay queries biologically meaningful.

#ifndef DRUGTREE_INTEGRATION_ACTIVITY_SOURCE_H_
#define DRUGTREE_INTEGRATION_ACTIVITY_SOURCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "integration/source.h"
#include "util/result.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {

struct ActivityGenParams {
  /// Expected number of ligand activities per protein.
  double activities_per_protein = 6.0;
  /// Fraction of measurements that are duplicated across "databases" with
  /// small disagreements — exercising the mediator's conflict resolution.
  double duplicate_fraction = 0.1;
};

class ActivitySource : public RemoteSource {
 public:
  /// Generates activities over the given protein accessions and ligand ids.
  static util::Result<ActivitySource> Create(
      const std::vector<std::string>& accessions,
      const std::vector<std::string>& ligand_ids,
      const ActivityGenParams& params, SimulatedNetwork* network,
      util::Rng* rng);

  /// All measurements for one protein; one request.
  Deferred<std::vector<ActivityRecord>> FetchByAccession(
      const std::string& accession);

  /// Bulk export; one request.
  Deferred<std::vector<ActivityRecord>> FetchAll();

  size_t NumRecords() const { return records_.size(); }

 private:
  ActivitySource(std::string name, SimulatedNetwork* network)
      : RemoteSource(std::move(name), network) {}

  std::vector<ActivityRecord> records_;
  std::unordered_map<std::string, std::vector<size_t>> by_accession_;
};

}  // namespace integration
}  // namespace drugtree

#endif  // DRUGTREE_INTEGRATION_ACTIVITY_SOURCE_H_
