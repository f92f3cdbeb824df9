// Tests for the scheduled federated fetch path: virtual-time request
// scheduling on SimulatedNetwork, the bounded FetchWindow, the mediator's
// windowed IntegrateAll, asynchronous prefetch widening, and the pinned
// virtual time of every fetch path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "integration/activity_source.h"
#include "integration/ligand_source.h"
#include "integration/mediator.h"
#include "integration/network.h"
#include "integration/prefetcher.h"
#include "integration/protein_source.h"
#include "integration/semantic_cache.h"
#include "storage/table.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace integration {
namespace {

TEST(NetworkConcurrencyTest, OverlappedLatenciesShareChannels) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 0;  // latency only
  params.jitter_fraction = 0;
  params.max_concurrency = 4;
  SimulatedNetwork net(&clock, params);
  // Four zero-payload requests all land at t=1000: latencies overlap.
  for (int i = 0; i < 4; ++i) {
    auto c = net.SubmitRequest(0);
    EXPECT_EQ(c.ready_micros, 1000) << i;
  }
  EXPECT_EQ(clock.NowMicros(), 0);  // submission never advances the clock
  // A fifth request queues behind the earliest channel.
  auto fifth = net.SubmitRequest(0);
  EXPECT_EQ(fifth.ready_micros, 2000);
  net.WaitUntil(fifth.ready_micros);
  EXPECT_EQ(clock.NowMicros(), 2000);
}

TEST(NetworkConcurrencyTest, TransfersShareBandwidth) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 0;
  params.bandwidth_bytes_per_sec = 1'000'000;  // 1 B/us
  params.jitter_fraction = 0;
  params.max_concurrency = 2;
  SimulatedNetwork net(&clock, params);
  // Alone on the link: full bandwidth.
  auto a = net.SubmitRequest(1000);
  EXPECT_EQ(a.ready_micros, 1000);
  // Second transfer starts while the first is still running: half bandwidth.
  auto b = net.SubmitRequest(1000);
  EXPECT_EQ(b.ready_micros, 2000);
  net.WaitUntil(b.ready_micros);
  EXPECT_EQ(clock.NowMicros(), 2000);
}

TEST(NetworkConcurrencyTest, SingleChannelSerializesSubmissions) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 0;
  params.jitter_fraction = 0;
  params.max_concurrency = 1;
  SimulatedNetwork net(&clock, params);
  EXPECT_EQ(net.SubmitRequest(0).ready_micros, 1000);
  EXPECT_EQ(net.SubmitRequest(0).ready_micros, 2000);
  EXPECT_EQ(net.SubmitRequest(0).ready_micros, 3000);
}

TEST(NetworkConcurrencyTest, BlockingRequestUnchangedAtConcurrencyOne) {
  // The blocking Request path must match the historical serial cost model
  // exactly (this mirrors NetworkTest.ChargesLatencyAndTransfer).
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 1'000'000;
  params.jitter_fraction = 0;
  SimulatedNetwork net(&clock, params);
  EXPECT_EQ(net.Request(5000), 6000);
  EXPECT_EQ(clock.NowMicros(), 6000);
  EXPECT_EQ(net.Request(5000), 6000);
  EXPECT_EQ(clock.NowMicros(), 12000);
}

TEST(NetworkConcurrencyTest, FailedAttemptsChargeTimeoutOnChannel) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 0;
  params.jitter_fraction = 0;
  params.failure_probability = 0.5;
  params.timeout_micros = 10'000;
  params.max_concurrency = 2;
  SimulatedNetwork net(&clock, params, /*seed=*/123);
  int64_t latest = 0;
  for (int i = 0; i < 50; ++i) {
    latest = std::max(latest, net.SubmitRequest(0).ready_micros);
  }
  EXPECT_GT(net.num_failures(), 0u);
  // Every completion is a success: charged = retries * timeout + cost.
  EXPECT_EQ(net.num_requests(), 50u + net.num_failures());
  net.WaitUntil(latest);
  EXPECT_GT(clock.NowMicros(), 0);
}

TEST(FetchWindowTest, RespectsBoundAndDrains) {
  util::SimulatedClock clock;
  NetworkParams params;
  params.latency_micros = 1000;
  params.bandwidth_bytes_per_sec = 0;
  params.jitter_fraction = 0;
  params.max_concurrency = 8;
  SimulatedNetwork net(&clock, params);
  FetchWindow window(&net, 3);
  for (int i = 0; i < 10; ++i) {
    window.Acquire();
    window.Track(net.SubmitRequest(0).ready_micros);
  }
  EXPECT_EQ(window.peak_in_flight(), 3);
  window.Drain();
  // 10 requests, 3 at a time, 1000us each: ceil(10/3) waves.
  EXPECT_EQ(clock.NowMicros(), 4000);
}

/// Builds an identical source stack (same seeds, same data) over its own
/// clock and network so serial and overlapped runs can be compared.
struct Stack {
  std::unique_ptr<util::SimulatedClock> clock;
  std::unique_ptr<SimulatedNetwork> network;
  std::unique_ptr<ProteinSource> proteins;
  std::unique_ptr<LigandSource> ligands;
  std::unique_ptr<ActivitySource> activities;
  std::unique_ptr<SemanticCache> cache;
  std::unique_ptr<Mediator> mediator;
};

Stack MakeStack(const NetworkParams& params) {
  Stack s;
  s.clock = std::make_unique<util::SimulatedClock>();
  s.network = std::make_unique<SimulatedNetwork>(s.clock.get(), params,
                                                 /*seed=*/99);
  util::Rng rng(42);
  ProteinSourceParams pp;
  pp.num_families = 2;
  pp.taxa_per_family = 6;
  pp.sequence_length = 60;
  auto ps = ProteinSource::Create(pp, s.network.get(), &rng);
  EXPECT_TRUE(ps.ok());
  s.proteins = std::make_unique<ProteinSource>(std::move(*ps));
  chem::LigandGenParams lp;
  auto ls = LigandSource::Create(40, lp, s.network.get(), &rng);
  EXPECT_TRUE(ls.ok());
  s.ligands = std::make_unique<LigandSource>(std::move(*ls));
  ActivityGenParams ap;
  std::vector<std::string> accs;
  for (const auto& r : Await(s.network.get(), s.proteins->FetchAll())) {
    accs.push_back(r.accession);
  }
  std::vector<std::string> ids;
  for (const auto& e : Await(s.network.get(), s.ligands->FetchAll())) {
    ids.push_back(e.record.ligand_id);
  }
  auto as = ActivitySource::Create(accs, ids, ap, s.network.get(), &rng);
  EXPECT_TRUE(as.ok());
  s.activities = std::make_unique<ActivitySource>(std::move(*as));
  s.cache = std::make_unique<SemanticCache>(1 << 20);
  s.mediator = std::make_unique<Mediator>(s.proteins.get(), s.ligands.get(),
                                          s.activities.get(), s.cache.get());
  return s;
}

std::vector<std::string> EncodedRows(const storage::Table& t) {
  std::vector<std::string> out;
  for (auto rid : t.LiveRows()) {
    std::string enc;
    storage::EncodeRow(t.row(rid), &enc);
    out.push_back(std::move(enc));
  }
  return out;
}

NetworkParams ComparableParams(int max_concurrency) {
  NetworkParams p;
  p.latency_micros = 50'000;
  p.bandwidth_bytes_per_sec = 1'000'000;
  p.jitter_fraction = 0;
  p.max_concurrency = max_concurrency;
  return p;
}

TEST(MediatorAsyncTest, OverlappedResultsIdenticalToSerial) {
  Stack serial = MakeStack(ComparableParams(1));
  Stack overlapped = MakeStack(ComparableParams(4));

  // The window is as wide as each stack's link: 1 and 4 channels.
  MediatorOptions opts;
  opts.batch_requests = false;
  opts.use_cache = false;

  int64_t serial_start = serial.clock->NowMicros();
  auto serial_ds = serial.mediator->IntegrateAll(opts);
  ASSERT_TRUE(serial_ds.ok());
  int64_t serial_elapsed = serial.clock->NowMicros() - serial_start;

  int64_t over_start = overlapped.clock->NowMicros();
  auto over_ds = overlapped.mediator->IntegrateAll(opts);
  ASSERT_TRUE(over_ds.ok());
  int64_t over_elapsed = overlapped.clock->NowMicros() - over_start;

  // Same integrated contents, row for row.
  EXPECT_EQ(EncodedRows(*serial_ds->proteins), EncodedRows(*over_ds->proteins));
  EXPECT_EQ(EncodedRows(*serial_ds->ligands), EncodedRows(*over_ds->ligands));
  EXPECT_EQ(EncodedRows(*serial_ds->activities),
            EncodedRows(*over_ds->activities));
  // Same number of source requests (no duplicated or dropped fetches).
  EXPECT_EQ(serial.network->num_requests(), overlapped.network->num_requests());
  // The window actually filled and overlap paid off substantially.
  EXPECT_EQ(overlapped.mediator->async_stats().peak_in_flight, 4);
  EXPECT_GT(overlapped.mediator->async_stats().async_requests, 0u);
  EXPECT_EQ(serial.mediator->async_stats().peak_in_flight, 1);
  EXPECT_GE(static_cast<double>(serial_elapsed),
            2.0 * static_cast<double>(over_elapsed));
}

TEST(MediatorAsyncTest, WindowNeverExceedsConfiguredConcurrency) {
  // The window is sized through the link: 3 channels.
  Stack s = MakeStack(ComparableParams(3));
  MediatorOptions opts;
  opts.batch_requests = false;
  opts.use_cache = false;
  ASSERT_TRUE(s.mediator->IntegrateAll(opts).ok());
  EXPECT_LE(s.mediator->async_stats().peak_in_flight, 3);
  EXPECT_EQ(s.mediator->async_stats().peak_in_flight, 3);
}

TEST(MediatorAsyncTest, OverlappedPathHonorsCache) {
  Stack s = MakeStack(ComparableParams(4));
  MediatorOptions opts;
  opts.batch_requests = false;
  ASSERT_TRUE(s.mediator->IntegrateAll(opts).ok());
  uint64_t after_first = s.network->num_requests();
  // Proteins and activities were cached by the first pass; a second
  // integration only refetches the uncached pieces (catalogs + ligands).
  ASSERT_TRUE(s.mediator->IntegrateAll(opts).ok());
  uint64_t second_pass = s.network->num_requests() - after_first;
  // 2 catalog listings + one request per ligand; no protein/activity fetches.
  EXPECT_EQ(second_pass, 2u + 40u);
}

TEST(MediatorAsyncTest, FailureInjectionConvergesUnderConcurrency) {
  NetworkParams p = ComparableParams(4);
  p.failure_probability = 0.2;
  p.timeout_micros = 200'000;
  Stack s = MakeStack(p);
  MediatorOptions opts;
  opts.batch_requests = false;
  opts.use_cache = false;
  auto ds = s.mediator->IntegrateAll(opts);
  ASSERT_TRUE(ds.ok());
  // Retries happened, yet every record arrived exactly once.
  EXPECT_GT(s.network->num_failures(), 0u);
  EXPECT_EQ(ds->proteins->NumRows(), 12);
  EXPECT_EQ(ds->ligands->NumRows(), 40);
  Stack clean = MakeStack(ComparableParams(1));
  auto clean_ds = clean.mediator->IntegrateAll(opts);
  ASSERT_TRUE(clean_ds.ok());
  EXPECT_EQ(EncodedRows(*ds->proteins), EncodedRows(*clean_ds->proteins));
  EXPECT_EQ(EncodedRows(*ds->activities), EncodedRows(*clean_ds->activities));
}

// The exact virtual time and request count of every fetch path, recorded
// while each fetch still had a blocking and a deferred copy. The link is
// jittery and drops 5% of attempts, so the RNG draw order (failure coin,
// then jitter, per attempt) is pinned along with scheduling and caching.
NetworkParams PinnedParams(int channels) {
  NetworkParams p = ComparableParams(channels);
  p.jitter_fraction = 0.1;
  p.failure_probability = 0.05;
  p.timeout_micros = 200'000;
  return p;
}

TEST(PinnedFetchTimeTest, PerRecordIntegration) {
  struct Pass {
    int channels;
    bool use_cache;
    std::vector<std::pair<int64_t, uint64_t>> micros_and_requests;
  };
  const Pass kPasses[] = {
      {1, false, {{3'697'533, 68}}},
      {1, true, {{3'697'533, 68}, {2'495'040, 44}}},
      {4, false, {{1'014'151, 68}}},
      {4, true, {{1'014'151, 68}, {713'971, 44}}},
  };
  for (const Pass& pass : kPasses) {
    Stack s = MakeStack(PinnedParams(pass.channels));
    MediatorOptions opts;
    opts.batch_requests = false;
    opts.use_cache = pass.use_cache;
    for (const auto& [micros, requests] : pass.micros_and_requests) {
      int64_t t0 = s.clock->NowMicros();
      uint64_t r0 = s.network->num_requests();
      ASSERT_TRUE(s.mediator->IntegrateAll(opts).ok());
      EXPECT_EQ(s.clock->NowMicros() - t0, micros)
          << pass.channels << " channels, cache " << pass.use_cache;
      EXPECT_EQ(s.network->num_requests() - r0, requests)
          << pass.channels << " channels, cache " << pass.use_cache;
    }
  }
}

TEST(PinnedFetchTimeTest, PrefetchDrillDown) {
  struct Mode {
    bool async_prefetch;
    int64_t before_quiesce;
    int64_t after_quiesce;
  };
  for (const Mode& mode : {Mode{false, 737'979, 737'979},
                           Mode{true, 192'755, 300'786}}) {
    Stack s = MakeStack(PinnedParams(4));
    PrefetcherOptions popts;
    popts.prefetch_activities = true;
    popts.async_prefetch = mode.async_prefetch;
    TreeAwarePrefetcher prefetcher(s.mediator.get(), s.cache.get(), popts);
    int64_t t0 = s.clock->NowMicros();
    uint64_t r0 = s.network->num_requests();
    std::vector<std::string> accs =
        Await(s.network.get(), s.proteins->ListAccessions());
    // Misses on 0 and 7 widen to families 0 and 1; 1, 2 and 8 then hit.
    for (size_t i : {0, 1, 2, 7, 8}) {
      ASSERT_TRUE(prefetcher.GetProtein(accs[i]).ok());
    }
    ASSERT_TRUE(prefetcher.GetActivities(accs[1]).ok());
    EXPECT_EQ(s.clock->NowMicros() - t0, mode.before_quiesce)
        << "async " << mode.async_prefetch;
    prefetcher.Quiesce();
    EXPECT_EQ(s.clock->NowMicros() - t0, mode.after_quiesce)
        << "async " << mode.async_prefetch;
    EXPECT_EQ(s.network->num_requests() - r0, 15u);
  }
}

TEST(PinnedFetchTimeTest, UnknownAccessionCostsOneRoundTrip) {
  Stack s = MakeStack(ComparableParams(1));
  int64_t t0 = s.clock->NowMicros();
  uint64_t r0 = s.network->num_requests();
  auto rec = Await(s.network.get(),
                   s.mediator->GetProtein("NOPE", MediatorOptions()));
  EXPECT_TRUE(rec.status().IsNotFound());
  // 50 ms latency plus a 64-byte error response at 1 B/us, paid before the
  // NotFound is returned.
  EXPECT_EQ(s.clock->NowMicros() - t0, 50'064);
  EXPECT_EQ(s.network->num_requests() - r0, 1u);
}

TEST(PrefetcherAsyncTest, AsyncWideningInstallsSameCacheEntries) {
  Stack sync_stack = MakeStack(ComparableParams(4));
  Stack async_stack = MakeStack(ComparableParams(4));

  PrefetcherOptions sync_opts;
  sync_opts.prefetch_activities = true;
  PrefetcherOptions async_opts = sync_opts;
  async_opts.async_prefetch = true;

  TreeAwarePrefetcher sync_pf(sync_stack.mediator.get(),
                              sync_stack.cache.get(), sync_opts);
  TreeAwarePrefetcher async_pf(async_stack.mediator.get(),
                               async_stack.cache.get(), async_opts);

  std::string acc = Await(sync_stack.network.get(),
                          sync_stack.proteins->ListAccessions())[0];
  // Keep the request streams aligned.
  Await(async_stack.network.get(), async_stack.proteins->ListAccessions());

  int64_t sync_start = sync_stack.clock->NowMicros();
  ASSERT_TRUE(sync_pf.GetProtein(acc).ok());
  int64_t sync_elapsed = sync_stack.clock->NowMicros() - sync_start;

  int64_t async_start = async_stack.clock->NowMicros();
  ASSERT_TRUE(async_pf.GetProtein(acc).ok());
  int64_t async_elapsed = async_stack.clock->NowMicros() - async_start;

  // The demand fetch returns before the widening completes.
  EXPECT_LT(async_elapsed, sync_elapsed);
  // Same speculative installs either way.
  EXPECT_EQ(async_pf.stats().prefetched_records,
            sync_pf.stats().prefetched_records);
  for (const auto& rec :
       Await(sync_stack.network.get(), sync_stack.proteins->FetchAll())) {
    EXPECT_EQ(
        async_stack.cache->Contains(SemanticCache::ProteinKey(rec.accession)),
        sync_stack.cache->Contains(SemanticCache::ProteinKey(rec.accession)))
        << rec.accession;
  }
  // Quiesce pays the deferred time; afterwards nothing is outstanding.
  async_pf.Quiesce();
  int64_t settled = async_stack.clock->NowMicros();
  async_pf.Quiesce();
  EXPECT_EQ(async_stack.clock->NowMicros(), settled);
}

}  // namespace
}  // namespace integration
}  // namespace drugtree
