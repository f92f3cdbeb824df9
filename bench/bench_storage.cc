// E8 (Table 3): storage microbenchmarks — B+-tree vs hash index for point
// and range access, and buffer-pool hit behaviour under skewed page access.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"

namespace {

using namespace drugtree;
using storage::BPlusTree;
using storage::HashIndex;
using storage::RowId;
using storage::Value;

struct Indexes {
  BPlusTree btree{64};
  HashIndex hash;
};

Indexes* GetIndexes(int n) {
  static std::map<int, Indexes*> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto* ix = new Indexes();
  util::Rng rng(11);
  std::vector<int64_t> keys;
  for (int i = 0; i < n; ++i) keys.push_back(i);
  rng.Shuffle(keys);
  for (int i = 0; i < n; ++i) {
    DT_CHECK(ix->btree.Insert(Value::Int64(keys[size_t(i)]), i).ok());
    DT_CHECK(ix->hash.Insert(Value::Int64(keys[size_t(i)]), i).ok());
  }
  cache[n] = ix;
  return ix;
}

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree tree(64);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(tree.Insert(Value::Int64(i), i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BTreePointLookup(benchmark::State& state) {
  Indexes* ix = GetIndexes(static_cast<int>(state.range(0)));
  util::Rng rng(3);
  for (auto _ : state) {
    auto rows = ix->btree.Find(
        Value::Int64(rng.UniformRange(0, state.range(0) - 1)));
    benchmark::DoNotOptimize(rows);
  }
}

void BM_HashPointLookup(benchmark::State& state) {
  Indexes* ix = GetIndexes(static_cast<int>(state.range(0)));
  util::Rng rng(3);
  for (auto _ : state) {
    auto rows = ix->hash.Find(
        Value::Int64(rng.UniformRange(0, state.range(0) - 1)));
    benchmark::DoNotOptimize(rows);
  }
}

void BM_BTreeRangeScan100(benchmark::State& state) {
  Indexes* ix = GetIndexes(static_cast<int>(state.range(0)));
  util::Rng rng(5);
  for (auto _ : state) {
    int64_t lo = rng.UniformRange(0, state.range(0) - 101);
    auto rows = ix->btree.RangeScan(Value::Int64(lo), true,
                                    Value::Int64(lo + 99), true);
    benchmark::DoNotOptimize(rows);
  }
}

// Hash "range" baseline: 100 point probes (the only way a hash index can
// answer a range) — the reason pre-order intervals need the B+-tree.
void BM_HashRangeVia100Probes(benchmark::State& state) {
  Indexes* ix = GetIndexes(static_cast<int>(state.range(0)));
  util::Rng rng(5);
  for (auto _ : state) {
    int64_t lo = rng.UniformRange(0, state.range(0) - 101);
    std::vector<RowId> rows;
    for (int64_t k = lo; k < lo + 100; ++k) {
      for (RowId r : ix->hash.Find(Value::Int64(k))) rows.push_back(r);
    }
    benchmark::DoNotOptimize(rows);
  }
}

void BM_BufferPoolSkewedReads(benchmark::State& state) {
  // 400 pages, pool of state.range(0) frames, Zipf access.
  static storage::DiskManager* disk = [] {
    auto dm = storage::DiskManager::Open("/tmp/drugtree_bench_storage.db");
    DT_CHECK(dm.ok());
    storage::DiskManager* d = dm->release();
    for (int i = 0; i < 400; ++i) DT_CHECK(d->AllocatePage().ok());
    return d;
  }();
  storage::BufferPool pool(disk, static_cast<size_t>(state.range(0)));
  // Pre-generate the Zipf access sequence (Zipf sampling is slow).
  static std::vector<storage::PageId> sequence = [] {
    util::Rng zipf_rng(13);
    std::vector<storage::PageId> s;
    for (int i = 0; i < 20000; ++i) {
      s.push_back(static_cast<storage::PageId>(zipf_rng.Zipf(400, 0.9)));
    }
    return s;
  }();
  size_t cursor = 0;
  for (auto _ : state) {
    auto page = pool.Fetch(sequence[cursor++ % sequence.size()]);
    DT_CHECK(page.ok());
    benchmark::DoNotOptimize(page->get()->data()[0]);
  }
  state.counters["hit_rate"] = benchmark::Counter(
      double(pool.hits()) / double(std::max<uint64_t>(1, pool.hits() +
                                                              pool.misses())));
}

}  // namespace

BENCHMARK(BM_BTreeInsert)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BTreePointLookup)->Arg(10000)->Arg(100000);
BENCHMARK(BM_HashPointLookup)->Arg(10000)->Arg(100000);
BENCHMARK(BM_BTreeRangeScan100)->Arg(10000)->Arg(100000);
BENCHMARK(BM_HashRangeVia100Probes)->Arg(10000)->Arg(100000);
BENCHMARK(BM_BufferPoolSkewedReads)->Arg(40)->Arg(100)->Arg(400);

int main(int argc, char** argv) {
  drugtree::bench::Banner(
      "E8 (Table 3)",
      "storage microbenchmarks: B+-tree vs hash, buffer pool");
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::remove("/tmp/drugtree_bench_storage.db");
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
