// E2 (Table 1): optimizer ablation on the canonical overlay screening join
//   proteins ⋈ activities ⋈ ligands, filtered to a clade and an affinity
//   threshold.
// Each row of the table toggles one optimization class off, isolating its
// contribution ("applies standards as well as uses novel mechanisms").
// BM_PlanOnly times planning alone (parse, logical plan, optimizer and
// physical planning) over the same statements, without executing them.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "core/drugtree.h"
#include "core/workload.h"
#include "util/clock.h"

namespace {

using namespace drugtree;

core::DrugTree* GetInstance() {
  static core::DrugTree* dt = [] {
    static util::SimulatedClock clock;
    core::BuildOptions options;
    options.seed = 31;
    options.num_families = 6;
    options.taxa_per_family = 24;
    options.num_ligands = 500;
    options.activities_per_protein = 8;
    auto built = core::DrugTree::Build(options, &clock);
    DT_CHECK(built.ok()) << built.status();
    return built->release();
  }();
  return dt;
}

std::vector<std::string> ScreeningQueries() {
  core::DrugTree* dt = GetInstance();
  core::WorkloadParams wp;
  wp.num_queries = 16;
  wp.w_subtree_proteins = 0;
  wp.w_subtree_overlay = 0;
  wp.w_screening_join = 1;
  wp.w_family_aggregate = 0;
  wp.w_ancestor_path = 0;
  util::Rng rng(5);
  std::vector<std::string> out;
  for (auto& q :
       core::GenerateWorkload(dt->tree(), dt->tree_index(), wp, &rng)) {
    out.push_back(q.sql);
  }
  return out;
}

void RunConfig(benchmark::State& state, query::PlannerOptions options) {
  core::DrugTree* dt = GetInstance();
  static const std::vector<std::string> queries = ScreeningQueries();
  size_t cursor = 0;
  int64_t scanned = 0, fetched = 0, evals = 0, runs = 0;
  for (auto _ : state) {
    auto outcome = dt->Query(queries[cursor++ % queries.size()], options);
    DT_CHECK(outcome.ok()) << outcome.status();
    scanned += outcome->stats.rows_scanned;
    fetched += outcome->stats.rows_index_fetched;
    evals += outcome->stats.predicate_evals;
    ++runs;
    benchmark::DoNotOptimize(outcome->result);
  }
  state.counters["rows_scanned"] = benchmark::Counter(double(scanned) / runs);
  state.counters["idx_fetched"] = benchmark::Counter(double(fetched) / runs);
  state.counters["pred_evals"] = benchmark::Counter(double(evals) / runs);
}

void BM_AllOff(benchmark::State& state) {
  RunConfig(state, query::PlannerOptions::Naive());
}

void BM_OnlyPushdown(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Naive();
  o.optimizer.enable_pushdown = true;
  RunConfig(state, o);
}

void BM_OnlyTreeRewriteAndIndex(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Naive();
  o.optimizer.enable_pushdown = true;  // rewrite needs predicates at scans
  o.optimizer.enable_tree_rewrite = true;
  o.enable_index_selection = true;
  RunConfig(state, o);
}

void BM_OnlyJoinReorder(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Naive();
  o.optimizer.enable_join_reorder = true;
  o.enable_hash_join = true;
  RunConfig(state, o);
}

void BM_AllOnNoHashJoin(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Optimized();
  o.enable_hash_join = false;
  RunConfig(state, o);
}

void BM_AllOnNoPruning(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Optimized();
  o.optimizer.enable_projection_pruning = false;
  RunConfig(state, o);
}

void BM_AllOn(benchmark::State& state) {
  RunConfig(state, query::PlannerOptions::Optimized());
}

void BM_PlanOnly(benchmark::State& state) {
  core::DrugTree* dt = GetInstance();
  static const std::vector<std::string> queries = ScreeningQueries();
  query::Planner planner(dt->catalog());
  const query::PlannerOptions options = query::PlannerOptions::Optimized();
  size_t cursor = 0;
  for (auto _ : state) {
    query::ExecStats stats;
    auto physical =
        planner.Plan(queries[cursor++ % queries.size()], options, &stats);
    DT_CHECK(physical.ok()) << physical.status();
    benchmark::DoNotOptimize(*physical);
  }
}

}  // namespace

BENCHMARK(BM_AllOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlyPushdown)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlyTreeRewriteAndIndex)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlyJoinReorder)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllOnNoHashJoin)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllOnNoPruning)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlanOnly)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  drugtree::bench::Banner(
      "E2 (Table 1)",
      "optimizer ablation on the 3-way overlay screening join\n"
      "(144 proteins x ~1200 activities x 500 ligands)");
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
