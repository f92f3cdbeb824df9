#include "integration/protein_source.h"

#include "util/string_util.h"

namespace drugtree {
namespace integration {

namespace {

const char* kOrganisms[] = {"H. sapiens", "M. musculus", "E. coli",
                            "S. cerevisiae", "D. melanogaster"};

}  // namespace

util::Result<ProteinSource> ProteinSource::Create(
    const ProteinSourceParams& params, SimulatedNetwork* network,
    util::Rng* rng) {
  if (params.num_families < 1 || params.taxa_per_family < 2) {
    return util::Status::InvalidArgument(
        "need >= 1 family and >= 2 taxa per family");
  }
  ProteinSource src("protein-db", network);
  for (int f = 0; f < params.num_families; ++f) {
    bio::EvolutionParams ep;
    ep.num_taxa = params.taxa_per_family;
    ep.sequence_length = params.sequence_length;
    ep.id_prefix = util::StringPrintf("P%02d_", f);
    DRUGTREE_ASSIGN_OR_RETURN(bio::EvolvedFamily fam,
                              bio::EvolveFamily(ep, rng));
    src.true_trees_.push_back(fam.true_tree_newick);
    std::string family_label = util::StringPrintf("family-%d", f);
    for (const auto& seq : fam.sequences) {
      ProteinRecord rec;
      rec.accession = seq.id();
      rec.name = "protein " + seq.id();
      rec.family = family_label;
      rec.organism = kOrganisms[rng->Uniform(std::size(kOrganisms))];
      rec.sequence = seq.residues();
      src.by_accession_[rec.accession] = src.records_.size();
      src.records_.push_back(std::move(rec));
    }
  }
  return src;
}

Deferred<util::Result<ProteinRecord>> ProteinSource::FetchByAccession(
    const std::string& accession) {
  auto it = by_accession_.find(accession);
  if (it == by_accession_.end()) {
    // Error responses still cost a round trip.
    return {util::Status::NotFound("no protein with accession " + accession),
            Charge(64)};
  }
  const ProteinRecord& rec = records_[it->second];
  return {rec, Charge(rec.ApproxBytes())};
}

Deferred<std::vector<ProteinRecord>> ProteinSource::FetchFamily(
    const std::string& family) {
  std::vector<ProteinRecord> out;
  uint64_t bytes = 64;
  for (const auto& r : records_) {
    if (r.family == family) {
      out.push_back(r);
      bytes += r.ApproxBytes();
    }
  }
  return {std::move(out), Charge(bytes)};
}

Deferred<std::vector<ProteinRecord>> ProteinSource::FetchAll() {
  uint64_t bytes = 64;
  for (const auto& r : records_) bytes += r.ApproxBytes();
  return {records_, Charge(bytes)};
}

Deferred<std::vector<std::string>> ProteinSource::ListAccessions() {
  std::vector<std::string> out;
  uint64_t bytes = 16;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    out.push_back(r.accession);
    bytes += r.accession.size();
  }
  return {std::move(out), Charge(bytes)};
}

}  // namespace integration
}  // namespace drugtree
