// E3 (Fig 2): federated integration latency vs source RTT, with and without
// the semantic cache / batching / tree-aware prefetching. Time is simulated,
// so the x-axis sweeps real 2013-era RTTs cheaply.

#include <cstdio>

#include "bench_util.h"
#include "integration/mediator.h"
#include "integration/prefetcher.h"
#include "util/clock.h"

namespace {

using namespace drugtree;
using namespace drugtree::integration;

struct World {
  std::unique_ptr<util::SimulatedClock> clock;
  std::unique_ptr<SimulatedNetwork> network;
  std::unique_ptr<ProteinSource> proteins;
  std::unique_ptr<LigandSource> ligands;
  std::unique_ptr<ActivitySource> activities;
  std::unique_ptr<SemanticCache> cache;
  std::unique_ptr<Mediator> mediator;
  std::vector<std::string> accessions;
};

World MakeWorld(int64_t rtt_ms) {
  World w;
  w.clock = std::make_unique<util::SimulatedClock>();
  NetworkParams params;
  params.latency_micros = rtt_ms * 1000;
  params.jitter_fraction = 0.0;
  w.network = std::make_unique<SimulatedNetwork>(w.clock.get(), params);
  util::Rng rng(17);
  ProteinSourceParams pp;
  pp.num_families = 6;
  pp.taxa_per_family = 16;
  auto ps = ProteinSource::Create(pp, w.network.get(), &rng);
  DT_CHECK(ps.ok());
  w.proteins = std::make_unique<ProteinSource>(std::move(*ps));
  chem::LigandGenParams lp;
  auto ls = LigandSource::Create(300, lp, w.network.get(), &rng);
  DT_CHECK(ls.ok());
  w.ligands = std::make_unique<LigandSource>(std::move(*ls));
  w.accessions = Await(w.network.get(), w.proteins->ListAccessions());
  ActivityGenParams ap;
  auto as = ActivitySource::Create(
      w.accessions, Await(w.network.get(), w.ligands->ListIds()), ap,
      w.network.get(), &rng);
  DT_CHECK(as.ok());
  w.activities = std::make_unique<ActivitySource>(std::move(*as));
  w.cache = std::make_unique<SemanticCache>(16 * 1024 * 1024);
  w.mediator = std::make_unique<Mediator>(w.proteins.get(), w.ligands.get(),
                                          w.activities.get(), w.cache.get());
  return w;
}

// Interactive access pattern: 200 protein+activity lookups with clade
// locality (runs of the same family).
void DrillDownSession(World& w, bool use_cache, bool prefetch,
                      bool async_prefetch, double* out_total_ms,
                      uint64_t* out_requests) {
  util::Rng rng(5);
  MediatorOptions mopts;
  mopts.use_cache = use_cache;
  PrefetcherOptions popts;
  popts.widen_to_family = prefetch;
  popts.async_prefetch = async_prefetch;
  TreeAwarePrefetcher prefetcher(w.mediator.get(), w.cache.get(), popts);

  int64_t t0 = w.clock->NowMicros();
  uint64_t r0 = w.network->num_requests();
  for (int burst = 0; burst < 20; ++burst) {
    // Pick a protein; inspect it and 9 clade mates (locality).
    const std::string& seed = w.accessions[rng.Uniform(w.accessions.size())];
    std::string family;
    if (prefetch) {
      auto rec = prefetcher.GetProtein(seed);
      DT_CHECK(rec.ok());
      family = rec->family;
    } else {
      auto rec = Await(w.network.get(), w.mediator->GetProtein(seed, mopts));
      DT_CHECK(rec.ok());
      family = rec->family;
    }
    // Mates come from the same family (what the analyst clicks next).
    std::vector<std::string> mates;
    for (const auto& acc : w.accessions) {
      if (acc != seed && acc.substr(0, 3) == seed.substr(0, 3)) {
        mates.push_back(acc);
      }
    }
    for (size_t i = 0; i < std::min<size_t>(9, mates.size()); ++i) {
      if (prefetch) {
        DT_CHECK(prefetcher.GetProtein(mates[i]).ok());
      } else {
        DT_CHECK(
            Await(w.network.get(), w.mediator->GetProtein(mates[i], mopts))
                .ok());
      }
    }
  }
  prefetcher.Quiesce();  // pay any overlapped widening still in flight
  *out_total_ms = (w.clock->NowMicros() - t0) / 1000.0;
  *out_requests = w.network->num_requests() - r0;
}

}  // namespace

int main(int argc, char** argv) {
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  bench::Banner("E3 (Fig 2)",
                "federated integration latency vs source RTT\n"
                "(96 proteins, 300 ligands; simulated network)");

  std::printf("\n-- bulk integration: batched vs per-record requests --\n");
  std::printf("%8s %18s %18s %10s\n", "RTT(ms)", "batched(ms)",
              "per-record(ms)", "speedup");
  for (int64_t rtt : {10, 50, 100, 250, 500}) {
    World w = MakeWorld(rtt);
    MediatorOptions batched;
    batched.batch_requests = true;
    int64_t t0 = w.clock->NowMicros();
    DT_CHECK(w.mediator->IntegrateAll(batched).ok());
    double batched_ms = (w.clock->NowMicros() - t0) / 1000.0;
    MediatorOptions per_record;
    per_record.batch_requests = false;
    per_record.use_cache = false;
    t0 = w.clock->NowMicros();
    DT_CHECK(w.mediator->IntegrateAll(per_record).ok());
    double record_ms = (w.clock->NowMicros() - t0) / 1000.0;
    std::printf("%8lld %18.1f %18.1f %9.1fx\n", (long long)rtt, batched_ms,
                record_ms, record_ms / batched_ms);
  }

  std::printf(
      "\n-- interactive drill-down (200 lookups, clade locality) --\n");
  std::printf("%8s %14s %14s %14s %22s\n", "RTT(ms)", "no-cache(ms)",
              "cache(ms)", "+prefetch(ms)", "requests (nc/c/pf)");
  for (int64_t rtt : {10, 50, 100, 250, 500}) {
    double no_cache_ms, cache_ms, prefetch_ms;
    uint64_t nc_req, c_req, pf_req;
    {
      World w = MakeWorld(rtt);
      DrillDownSession(w, false, false, false, &no_cache_ms, &nc_req);
    }
    {
      World w = MakeWorld(rtt);
      DrillDownSession(w, true, false, false, &cache_ms, &c_req);
    }
    {
      World w = MakeWorld(rtt);
      DrillDownSession(w, true, true, false, &prefetch_ms, &pf_req);
    }
    std::printf("%8lld %14.1f %14.1f %14.1f %10llu/%llu/%llu\n",
                (long long)rtt, no_cache_ms, cache_ms, prefetch_ms,
                (unsigned long long)nc_req, (unsigned long long)c_req,
                (unsigned long long)pf_req);
  }
  std::printf("\n-- flaky link (100 ms RTT, 2 s timeout, retried) --\n");
  std::printf("%12s %18s %14s\n", "failure p", "integrate (ms)", "timeouts");
  for (double p : {0.0, 0.05, 0.15, 0.30}) {
    World w = MakeWorld(100);
    // Rebuild the network with failure injection.
    NetworkParams params = w.network->params();
    params.failure_probability = p;
    params.timeout_micros = 2'000'000;
    w.network->set_params(params);
    uint64_t f0 = w.network->num_failures();
    int64_t t0 = w.clock->NowMicros();
    // Per-record fetching (hundreds of requests) so failures actually bite.
    MediatorOptions opts;
    opts.batch_requests = false;
    opts.use_cache = false;
    DT_CHECK(w.mediator->IntegrateAll(opts).ok());
    std::printf("%12.2f %18.1f %14llu\n", p,
                (w.clock->NowMicros() - t0) / 1000.0,
                (unsigned long long)(w.network->num_failures() - f0));
  }

  std::printf(
      "\n-- overlapped fetch: per-record integration, window sweep --\n");
  std::printf("(default link: 50 ms RTT, 1 MB/s, cold cache)\n");
  std::printf("%12s %18s %10s %15s\n", "concurrency", "integrate (ms)",
              "speedup", "peak in-flight");
  double base_ms = 0.0;
  for (int c : {1, 2, 4, 8}) {
    World w = MakeWorld(50);
    NetworkParams params = w.network->params();
    params.max_concurrency = c;
    w.network->set_params(params);
    MediatorOptions opts;
    opts.batch_requests = false;
    opts.use_cache = false;
    int64_t t0 = w.clock->NowMicros();
    DT_CHECK(w.mediator->IntegrateAll(opts).ok());
    double ms = (w.clock->NowMicros() - t0) / 1000.0;
    if (c == 1) base_ms = ms;
    std::printf("%12d %18.1f %9.1fx %15d\n", c, ms, base_ms / ms,
                w.mediator->async_stats().peak_in_flight);
  }

  std::printf(
      "\n-- drill-down with overlapped prefetch (100 ms RTT, 4 channels) --\n");
  std::printf("%18s %14s %12s\n", "prefetch mode", "session(ms)", "requests");
  for (bool async_pf : {false, true}) {
    World w = MakeWorld(100);
    NetworkParams params = w.network->params();
    params.max_concurrency = 4;
    w.network->set_params(params);
    double ms;
    uint64_t req;
    DrillDownSession(w, true, true, async_pf, &ms, &req);
    std::printf("%18s %14.1f %12llu\n", async_pf ? "overlapped" : "blocking",
                ms, (unsigned long long)req);
  }

  std::printf("\nshape check: caching flattens repeat cost; prefetching\n"
              "collapses clade drill-downs to ~1 batched request per clade;\n"
              "retries absorb link failures at timeout-proportional cost;\n"
              "overlapping the fetch window hides per-record round trips.\n");
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
