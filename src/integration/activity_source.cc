#include "integration/activity_source.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace drugtree {
namespace integration {

namespace {
const char* kAssayTypes[] = {"IC50", "Ki", "Kd"};
const char* kSourceDbs[] = {"assaydb-A", "assaydb-B"};
}  // namespace

util::Result<ActivitySource> ActivitySource::Create(
    const std::vector<std::string>& accessions,
    const std::vector<std::string>& ligand_ids,
    const ActivityGenParams& params, SimulatedNetwork* network,
    util::Rng* rng) {
  if (accessions.empty() || ligand_ids.empty()) {
    return util::Status::InvalidArgument(
        "need at least one protein and one ligand");
  }
  if (params.activities_per_protein <= 0) {
    return util::Status::InvalidArgument(
        "activities_per_protein must be positive");
  }
  ActivitySource src("activity-db", network);
  for (const auto& acc : accessions) {
    // Poisson-ish count via rounded exponential arrivals.
    int count = 0;
    double t = 0;
    while (true) {
      t += rng->NextExponential(1.0);
      if (t > params.activities_per_protein) break;
      ++count;
    }
    count = std::max(1, count);
    for (int i = 0; i < count; ++i) {
      ActivityRecord rec;
      rec.accession = acc;
      // Zipf over ligands: a few promiscuous compounds dominate, as in real
      // assay data.
      rec.ligand_id = ligand_ids[rng->Zipf(
          std::min<uint64_t>(ligand_ids.size(), 200), 0.8)];
      // Log-normal affinity in roughly [1, 100000] nM.
      double logv = rng->NextGaussian() * 1.5 + 5.5;
      rec.affinity_nm = std::clamp(std::exp(logv), 1.0, 100'000.0);
      rec.assay_type = kAssayTypes[rng->Uniform(std::size(kAssayTypes))];
      rec.source_db = kSourceDbs[0];
      size_t idx = src.records_.size();
      src.by_accession_[rec.accession].push_back(idx);
      src.records_.push_back(rec);
      // Conflicting duplicate from the second database.
      if (rng->Bernoulli(params.duplicate_fraction)) {
        ActivityRecord dup = rec;
        dup.source_db = kSourceDbs[1];
        dup.affinity_nm *= rng->UniformDouble(0.8, 1.25);
        size_t didx = src.records_.size();
        src.by_accession_[dup.accession].push_back(didx);
        src.records_.push_back(std::move(dup));
      }
    }
  }
  return src;
}

Deferred<std::vector<ActivityRecord>> ActivitySource::FetchByAccession(
    const std::string& accession) {
  std::vector<ActivityRecord> out;
  uint64_t bytes = 64;
  auto it = by_accession_.find(accession);
  if (it != by_accession_.end()) {
    for (size_t i : it->second) {
      out.push_back(records_[i]);
      bytes += out.back().ApproxBytes();
    }
  }
  return {std::move(out), Charge(bytes)};
}

Deferred<std::vector<ActivityRecord>> ActivitySource::FetchAll() {
  uint64_t bytes = 64;
  for (const auto& r : records_) bytes += r.ApproxBytes();
  return {records_, Charge(bytes)};
}

}  // namespace integration
}  // namespace drugtree
