// Federated integration demo: shows the mediator pulling from the three
// simulated remote databases, the cost of per-record vs batched fetching,
// and the semantic cache warming up under point requests.
//
//   $ ./build/examples/federated_query

#include <cstdio>

#include "integration/mediator.h"
#include "integration/prefetcher.h"
#include "util/clock.h"
#include "util/string_util.h"
#include "util/rng.h"

using namespace drugtree;
using namespace drugtree::integration;

int main() {
  util::SimulatedClock clock;
  NetworkParams net_params;  // 50 ms latency, 1 MB/s
  SimulatedNetwork network(&clock, net_params);
  util::Rng rng(2026);

  ProteinSourceParams pp;
  pp.num_families = 4;
  pp.taxa_per_family = 12;
  auto proteins = ProteinSource::Create(pp, &network, &rng);
  chem::LigandGenParams lp;
  auto ligands = LigandSource::Create(200, lp, &network, &rng);
  if (!proteins.ok() || !ligands.ok()) {
    std::fprintf(stderr, "source setup failed\n");
    return 1;
  }
  std::vector<std::string> accs = Await(&network, proteins->ListAccessions());
  std::vector<std::string> lig_ids = Await(&network, ligands->ListIds());
  ActivityGenParams ap;
  auto activities =
      ActivitySource::Create(accs, lig_ids, ap, &network, &rng);
  if (!activities.ok()) {
    std::fprintf(stderr, "activity source failed\n");
    return 1;
  }
  SemanticCache cache(4 * 1024 * 1024);
  Mediator mediator(&*proteins, &*ligands, &*activities, &cache);

  auto report = [&](const char* label, int64_t start_us, uint64_t start_req) {
    std::printf("%-34s %8.1f ms  %4llu requests\n", label,
                (clock.NowMicros() - start_us) / 1000.0,
                (unsigned long long)(network.num_requests() - start_req));
  };

  // Integration, batched vs per-record.
  {
    int64_t t0 = clock.NowMicros();
    uint64_t r0 = network.num_requests();
    MediatorOptions opts;
    opts.batch_requests = true;
    auto ds = mediator.IntegrateAll(opts);
    if (!ds.ok()) return 1;
    report("IntegrateAll (batched)", t0, r0);
  }
  {
    int64_t t0 = clock.NowMicros();
    uint64_t r0 = network.num_requests();
    MediatorOptions opts;
    opts.batch_requests = false;
    opts.use_cache = false;
    auto ds = mediator.IntegrateAll(opts);
    if (!ds.ok()) return 1;
    report("IntegrateAll (per-record)", t0, r0);
  }

  // Point lookups: cold, then cache-warm.
  {
    cache.Clear();
    MediatorOptions opts;
    int64_t t0 = clock.NowMicros();
    uint64_t r0 = network.num_requests();
    for (int i = 0; i < 10; ++i) {
      const std::string& acc = accs[static_cast<size_t>(i)];
      if (!Await(&network, mediator.GetProtein(acc, opts)).ok()) return 1;
    }
    report("10 point lookups (cold)", t0, r0);
    t0 = clock.NowMicros();
    r0 = network.num_requests();
    for (int i = 0; i < 10; ++i) {
      const std::string& acc = accs[static_cast<size_t>(i)];
      if (!Await(&network, mediator.GetProtein(acc, opts)).ok()) return 1;
    }
    report("10 point lookups (warm)", t0, r0);
  }

  // Tree-aware prefetching: one miss widens to the family.
  {
    cache.Clear();
    PrefetcherOptions popts;
    TreeAwarePrefetcher prefetcher(&mediator, &cache, popts);
    int64_t t0 = clock.NowMicros();
    uint64_t r0 = network.num_requests();
    // Touch 12 proteins of the same family (typical clade drill-down).
    auto fam = Await(&network, proteins->FetchFamily("family-2"));
    for (const auto& rec : fam) {
      if (!prefetcher.GetProtein(rec.accession).ok()) return 1;
    }
    report("family drill-down (prefetching)", t0, r0);
    std::printf("  prefetch usefulness: %.0f%% (%llu of %llu installs used)\n",
                prefetcher.stats().Usefulness() * 100,
                (unsigned long long)prefetcher.stats().useful_prefetches,
                (unsigned long long)prefetcher.stats().prefetched_records);
  }
  std::printf("\nsemantic cache: %llu hits, %llu misses, %s resident\n",
              (unsigned long long)cache.stats().hits,
              (unsigned long long)cache.stats().misses,
              util::HumanBytes(cache.used_bytes()).c_str());
  return 0;
}
