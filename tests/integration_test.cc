#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "integration/activity_source.h"
#include "integration/ligand_source.h"
#include "integration/mediator.h"
#include "integration/network.h"
#include "integration/prefetcher.h"
#include "integration/protein_source.h"
#include "integration/semantic_cache.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {
namespace {

TEST(NetworkTest, ChargesLatencyAndTransfer) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 1'000'000;  // 1 B/us
  params.jitter_fraction = 0;
  SimulatedNetwork net(&clock, params);
  int64_t cost = net.Request(5000);
  EXPECT_EQ(cost, 1000 + 5000);
  EXPECT_EQ(clock.NowMicros(), 6000);
  EXPECT_EQ(net.num_requests(), 1u);
  EXPECT_EQ(net.bytes_transferred(), 5000u);
}

TEST(NetworkTest, EstimateDoesNotAdvanceClock) {
  util::SimulatedClock clock;
  SimulatedNetwork net(&clock, NetworkParams{});
  EXPECT_GT(net.EstimateMicros(1000), 0);
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(NetworkTest, JitterBounded) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 10'000;
  params.bandwidth_bytes_per_sec = 0;  // disable transfer cost
  params.jitter_fraction = 0.1;
  SimulatedNetwork net(&clock, params);
  for (int i = 0; i < 100; ++i) {
    int64_t cost = net.Request(0);
    EXPECT_GE(cost, 9'000);
    EXPECT_LE(cost, 11'000);
  }
}

class SourcesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<util::SimulatedClock>();
    NetworkParams params;
    params.jitter_fraction = 0;
    network_ = std::make_unique<SimulatedNetwork>(clock_.get(), params);
    util::Rng rng(42);

    ProteinSourceParams pp;
    pp.num_families = 2;
    pp.taxa_per_family = 6;
    pp.sequence_length = 60;
    auto ps = ProteinSource::Create(pp, network_.get(), &rng);
    ASSERT_TRUE(ps.ok());
    proteins_ = std::make_unique<ProteinSource>(std::move(*ps));

    chem::LigandGenParams lp;
    auto ls = LigandSource::Create(50, lp, network_.get(), &rng);
    ASSERT_TRUE(ls.ok());
    ligands_ = std::make_unique<LigandSource>(std::move(*ls));

    ActivityGenParams ap;
    auto as = ActivitySource::Create(CollectAccessions(), CollectLigandIds(),
                                     ap, network_.get(), &rng);
    ASSERT_TRUE(as.ok());
    activities_ = std::make_unique<ActivitySource>(std::move(*as));

    cache_ = std::make_unique<SemanticCache>(1 << 20);
    mediator_ = std::make_unique<Mediator>(proteins_.get(), ligands_.get(),
                                           activities_.get(), cache_.get());
  }

  std::vector<std::string> CollectAccessions() {
    std::vector<std::string> out;
    for (const auto& r : Fetch(proteins_->FetchAll())) {
      out.push_back(r.accession);
    }
    return out;
  }
  std::vector<std::string> CollectLigandIds() {
    std::vector<std::string> out;
    for (const auto& e : Fetch(ligands_->FetchAll())) {
      out.push_back(e.record.ligand_id);
    }
    return out;
  }

  /// Blocks on one scheduled fetch, as every blocking caller does.
  template <typename T>
  T Fetch(Deferred<T> fetch) {
    return Await(network_.get(), std::move(fetch));
  }

  std::unique_ptr<util::SimulatedClock> clock_;
  std::unique_ptr<SimulatedNetwork> network_;
  std::unique_ptr<ProteinSource> proteins_;
  std::unique_ptr<LigandSource> ligands_;
  std::unique_ptr<ActivitySource> activities_;
  std::unique_ptr<SemanticCache> cache_;
  std::unique_ptr<Mediator> mediator_;
};

TEST_F(SourcesTest, ProteinSourcePopulation) {
  EXPECT_EQ(proteins_->NumRecords(), 12u);
  EXPECT_EQ(proteins_->true_trees().size(), 2u);
  auto accs = Fetch(proteins_->ListAccessions());
  EXPECT_EQ(accs.size(), 12u);
  auto rec = Fetch(proteins_->FetchByAccession(accs[0]));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->accession, accs[0]);
  EXPECT_FALSE(rec->sequence.empty());
  EXPECT_TRUE(
      Fetch(proteins_->FetchByAccession("NOPE")).status().IsNotFound());
}

TEST_F(SourcesTest, FetchFamilyFiltersCorrectly) {
  auto fam0 = Fetch(proteins_->FetchFamily("family-0"));
  EXPECT_EQ(fam0.size(), 6u);
  for (const auto& r : fam0) EXPECT_EQ(r.family, "family-0");
  EXPECT_TRUE(Fetch(proteins_->FetchFamily("family-99")).empty());
}

TEST_F(SourcesTest, BatchVsPerRecordRequestCounts) {
  uint64_t before = proteins_->num_requests();
  auto accs = Fetch(proteins_->ListAccessions());
  Fetch(proteins_->FetchAll());
  uint64_t batched = proteins_->num_requests() - before;
  EXPECT_EQ(batched, 2u);  // list + one bulk request
  before = proteins_->num_requests();
  for (const auto& a : accs) {
    ASSERT_TRUE(Fetch(proteins_->FetchByAccession(a)).ok());
  }
  EXPECT_EQ(proteins_->num_requests() - before, accs.size());
}

TEST_F(SourcesTest, LigandSourceServesProperties) {
  auto ids = Fetch(ligands_->ListIds());
  ASSERT_EQ(ids.size(), 50u);
  auto entry = Fetch(ligands_->FetchById(ids[3]));
  ASSERT_TRUE(entry.ok());
  EXPECT_GT(entry->properties.molecular_weight, 0.0);
  EXPECT_TRUE(Fetch(ligands_->FetchById("LX")).status().IsNotFound());
}

TEST_F(SourcesTest, ActivitySourceLinksKnownEntities) {
  auto all = Fetch(activities_->FetchAll());
  EXPECT_GT(all.size(), 10u);
  auto accs = CollectAccessions();
  std::set<std::string> acc_set(accs.begin(), accs.end());
  for (const auto& a : all) {
    EXPECT_TRUE(acc_set.count(a.accession)) << a.accession;
    EXPECT_GE(a.affinity_nm, 1.0);
    EXPECT_LE(a.affinity_nm, 100'000.0);
  }
  auto one = Fetch(activities_->FetchByAccession(accs[0]));
  EXPECT_GE(one.size(), 1u);
  for (const auto& a : one) EXPECT_EQ(a.accession, accs[0]);
}

TEST_F(SourcesTest, IntegrateAllBuildsConsistentTables) {
  MediatorOptions opts;
  auto ds = mediator_->IntegrateAll(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->proteins->NumRows(), 12);
  EXPECT_EQ(ds->ligands->NumRows(), 50);
  EXPECT_GT(ds->activities->NumRows(), 0);
  // Referential integrity: every activity accession exists in proteins.
  auto acc_col = *ds->activities->schema().IndexOf("accession");
  auto p_acc_col = *ds->proteins->schema().IndexOf("accession");
  std::set<std::string> accs;
  for (auto rid : ds->proteins->LiveRows()) {
    accs.insert(ds->proteins->row(rid)[p_acc_col].AsString());
  }
  for (auto rid : ds->activities->LiveRows()) {
    EXPECT_TRUE(accs.count(ds->activities->row(rid)[acc_col].AsString()));
  }
}

TEST_F(SourcesTest, ConflictResolutionMergesDuplicates) {
  MediatorOptions opts;
  auto ds = mediator_->IntegrateAll(opts);
  ASSERT_TRUE(ds.ok());
  // No two output rows share (accession, ligand, assay_type).
  auto s = ds->activities->schema();
  auto a_col = *s.IndexOf("accession");
  auto l_col = *s.IndexOf("ligand_id");
  auto t_col = *s.IndexOf("assay_type");
  auto src_col = *s.IndexOf("source_db");
  std::set<std::tuple<std::string, std::string, std::string>> seen;
  bool found_merged = false;
  for (auto rid : ds->activities->LiveRows()) {
    const auto& row = ds->activities->row(rid);
    auto key = std::make_tuple(row[a_col].AsString(), row[l_col].AsString(),
                               row[t_col].AsString());
    EXPECT_TRUE(seen.insert(key).second) << "duplicate survived merging";
    found_merged |= row[src_col].AsString() == "merged";
  }
  // The generator produces ~10% duplicates, so merging must have happened.
  EXPECT_TRUE(found_merged);
}

TEST_F(SourcesTest, MediatorCachesPointRequests) {
  auto accs = CollectAccessions();
  MediatorOptions opts;
  uint64_t before = proteins_->num_requests();
  ASSERT_TRUE(Fetch(mediator_->GetProtein(accs[0], opts)).ok());
  EXPECT_EQ(proteins_->num_requests(), before + 1);
  // Second request is served from cache: no new source request.
  ASSERT_TRUE(Fetch(mediator_->GetProtein(accs[0], opts)).ok());
  EXPECT_EQ(proteins_->num_requests(), before + 1);
  EXPECT_GT(cache_->stats().hits, 0u);
}

TEST_F(SourcesTest, MediatorCacheDisabledAlwaysFetches) {
  auto accs = CollectAccessions();
  MediatorOptions opts;
  opts.use_cache = false;
  uint64_t before = proteins_->num_requests();
  ASSERT_TRUE(Fetch(mediator_->GetProtein(accs[0], opts)).ok());
  ASSERT_TRUE(Fetch(mediator_->GetProtein(accs[0], opts)).ok());
  EXPECT_EQ(proteins_->num_requests(), before + 2);
}

TEST_F(SourcesTest, FamilyFetchServesLaterPointRequests) {
  MediatorOptions opts;
  auto fam = Fetch(mediator_->GetFamily("family-1", opts));
  ASSERT_TRUE(fam.ok());
  ASSERT_FALSE(fam->empty());
  uint64_t before = proteins_->num_requests();
  // Members were installed under fine-grained keys: no new requests.
  for (const auto& rec : *fam) {
    ASSERT_TRUE(Fetch(mediator_->GetProtein(rec.accession, opts)).ok());
  }
  EXPECT_EQ(proteins_->num_requests(), before);
  // The family itself is also served from cache.
  auto again = Fetch(mediator_->GetFamily("family-1", opts));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(proteins_->num_requests(), before);
  EXPECT_EQ(again->size(), fam->size());
}

TEST_F(SourcesTest, ProteinBlobRoundTrip) {
  auto accs = CollectAccessions();
  auto rec = Fetch(proteins_->FetchByAccession(accs[0]));
  ASSERT_TRUE(rec.ok());
  std::string blob = Mediator::EncodeProtein(*rec);
  auto back = Mediator::DecodeProtein(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->accession, rec->accession);
  EXPECT_EQ(back->sequence, rec->sequence);
  EXPECT_EQ(back->family, rec->family);
}

TEST_F(SourcesTest, ActivitiesBlobRoundTrip) {
  auto accs = CollectAccessions();
  auto recs = Fetch(activities_->FetchByAccession(accs[0]));
  std::string blob = Mediator::EncodeActivities(recs);
  auto back = Mediator::DecodeActivities(blob);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ((*back)[i].ligand_id, recs[i].ligand_id);
    EXPECT_DOUBLE_EQ((*back)[i].affinity_nm, recs[i].affinity_nm);
  }
}

TEST_F(SourcesTest, PrefetcherWidensToFamilyAndIsUseful) {
  PrefetcherOptions popts;
  TreeAwarePrefetcher prefetcher(mediator_.get(), cache_.get(), popts);
  auto accs = CollectAccessions();
  // Touch one protein of family-0: the whole family gets prefetched.
  auto first = prefetcher.GetProtein(accs[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(prefetcher.stats().prefetched_records, 0u);
  uint64_t requests_before = proteins_->num_requests();
  // Now touching its family mates hits the cache.
  // (costs one request)
  auto fam = Fetch(proteins_->FetchFamily(first->family));
  for (const auto& rec : fam) {
    ASSERT_TRUE(prefetcher.GetProtein(rec.accession).ok());
  }
  EXPECT_EQ(proteins_->num_requests(), requests_before + 1);
  EXPECT_GT(prefetcher.stats().useful_prefetches, 0u);
  EXPECT_GT(prefetcher.stats().Usefulness(), 0.0);
}

TEST_F(SourcesTest, SemanticCacheEvictionByBytes) {
  SemanticCache small(100);
  small.Put("k1", std::string(60, 'a'));
  small.Put("k2", std::string(60, 'b'));
  EXPECT_FALSE(small.Contains("k1"));
  EXPECT_TRUE(small.Contains("k2"));
  EXPECT_LE(small.used_bytes(), 100u);
}

}  // namespace
}  // namespace integration
}  // namespace drugtree
