// E15: adaptive planning — plan-cache efficacy and per-class adaptive knob
// retuning.
//
// E15b (real clock): plan-cache efficacy on a skewed serving mix —
// repeated overlay shapes and parameterized analytic joins. Two identical
// servers run the identical request stream, one with the plan cache off.
// Gates (tier-1, Release, --gate):
//   * hit rate >= 90% on the cached server;
//   * optimizer time (span.query.optimize — the re-plan work a hit skips)
//     with the cache on <= 1/2 of cache-off. The full kPlan phase is
//     reported too, but not gated: parse and physical planning run on hits
//     as well, so the phase total is noise-bounded around ~2x on this mix.
//
// E15c (real clock): a closed-loop mixed fleet with the adaptive
// controller enabled. The controller may only trade analytic parallelism
// for interactive latency, so the gate is the serving floor itself:
// interactive p99 <= 2ms while analytic work keeps completing.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/drugtree.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_store.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "server/server.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using namespace drugtree;

std::unique_ptr<core::DrugTree> MakeInstance(util::SimulatedClock* clock) {
  core::BuildOptions options;
  options.seed = 13;
  options.num_families = 6;
  options.taxa_per_family = 24;
  options.num_ligands = 300;
  auto built = core::DrugTree::Build(options, clock);
  DT_CHECK(built.ok()) << built.status();
  return std::move(*built);
}

/// The serving mix: a handful of hot overlay nodes (one template: the
/// tree-predicate rewrite keeps the node a parameter, so every node after
/// the first re-binds it) plus parameterized analytic joins (literal
/// variants re-bind one template per cardinality class). Skew is the whole
/// point — mobile sessions hammer the same subtrees.
struct Workload {
  std::vector<std::string> overlay;  // hot overlay statements, reused
  std::vector<std::string> analytic; // literal variants of two shapes
};

Workload MakeWorkload(core::DrugTree* dt, int hot_nodes, int variants) {
  Workload w;
  util::Rng rng(4242);
  size_t num_nodes = dt->tree().NumNodes();
  for (int i = 0; i < hot_nodes; ++i) {
    w.overlay.push_back(dt->OverlayQuerySql(
        static_cast<phylo::NodeId>(rng.Uniform(num_nodes))));
  }
  for (int i = 0; i < variants; ++i) {
    w.analytic.push_back(util::StringPrintf(
        "SELECT p.family, COUNT(*), AVG(l.mw) FROM proteins p, "
        "activities a, ligands l WHERE p.accession = a.accession "
        "AND a.ligand_id = l.ligand_id AND l.mw < %d.0 GROUP BY p.family",
        350 + 50 * i));
    w.analytic.push_back(util::StringPrintf(
        "SELECT p.family, COUNT(*) FROM proteins p, activities a "
        "WHERE p.accession = a.accession AND a.affinity_nm < %d.0 "
        "GROUP BY p.family",
        200 + 100 * i));
  }
  return w;
}

/// Sums the planning phase across every completed trace record.
int64_t TotalPlanMicros(server::DrugTreeServer* server) {
  int64_t total = 0;
  for (const obs::TraceRecord& r : server->trace_store()->Snapshot()) {
    total += r.PhaseMicros(obs::TracePhase::kPlan);
  }
  return total;
}

/// Process-wide optimizer time (the DT_SPAN mirror counter).
int64_t OptimizeMicros() {
  return obs::MetricRegistry::Default()
      ->GetCounter("span.query.optimize.total_micros")
      ->Value();
}

int RunPlanCacheEfficacy(core::DrugTree* dt, bool enforce) {
  bench::Banner("E15b", "plan-cache efficacy: skewed mix, cache on vs off");
  constexpr int kRounds = 100;
  Workload w = MakeWorkload(dt, 6, 4);

  server::ServerOptions on;
  on.worker_threads = 2;
  on.trace_store_capacity = 16384;
  server::ServerOptions off = on;
  off.enable_plan_cache = false;

  struct Lane {
    const char* name;
    std::unique_ptr<server::DrugTreeServer> server;
    int64_t plan_micros = 0;
    int64_t optimize_micros = 0;
  };
  Lane lanes[2] = {
      {"cache-on", dt->MakeServer(on, util::RealClock::Instance())},
      {"cache-off", dt->MakeServer(off, util::RealClock::Instance())},
  };

  int requests = 0;
  for (Lane& lane : lanes) {
    requests = 0;
    int64_t optimize_before = OptimizeMicros();
    for (int round = 0; round < kRounds; ++round) {
      // Mobile skew: each round replays the hot subtree overlays several
      // times for every pass over the analytic variants.
      for (int rep = 0; rep < 3; ++rep) {
        for (const std::string& sql : w.overlay) {
          server::QueryRequest r;
          r.sql = sql;
          DT_CHECK(lane.server->Submit(std::move(r)).ok());
          ++requests;
        }
      }
      for (const std::string& sql : w.analytic) {
        server::QueryRequest r;
        r.sql = sql;
        r.query_class = server::QueryClass::kAnalytic;
        DT_CHECK(lane.server->Submit(std::move(r)).ok());
        ++requests;
      }
    }
    lane.server->Drain();
    lane.plan_micros = TotalPlanMicros(lane.server.get());
    lane.optimize_micros = OptimizeMicros() - optimize_before;
  }

  query::PlanCache::Stats stats = lanes[0].server->plan_cache()->stats();
  int64_t lookups = stats.hits + stats.misses;
  double hit_rate =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
  double phase_ratio =
      lanes[0].plan_micros > 0
          ? static_cast<double>(lanes[1].plan_micros) / lanes[0].plan_micros
          : 0.0;
  double reduction = lanes[0].optimize_micros > 0
                         ? static_cast<double>(lanes[1].optimize_micros) /
                               lanes[0].optimize_micros
                         : 0.0;

  std::printf("%d requests/lane (%zu overlay shapes x 3 + %zu analytic "
              "variants, x %d rounds)\n\n",
              requests, w.overlay.size(), w.analytic.size(), kRounds);
  std::printf("%-10s %8s %8s %8s %8s %8s %12s %12s\n", "lane", "hits",
              "rebinds", "misses", "inval", "install", "optimize", "plan-total");
  std::printf("%-10s %8lld %8lld %8lld %8lld %8lld %9.2fms %9.2fms\n",
              lanes[0].name, (long long)stats.hits, (long long)stats.rebinds,
              (long long)stats.misses, (long long)stats.invalidations,
              (long long)stats.installs,
              static_cast<double>(lanes[0].optimize_micros) / 1000.0,
              static_cast<double>(lanes[0].plan_micros) / 1000.0);
  std::printf("%-10s %8s %8s %8s %8s %8s %9.2fms %9.2fms\n", lanes[1].name,
              "-", "-", "-", "-", "-",
              static_cast<double>(lanes[1].optimize_micros) / 1000.0,
              static_cast<double>(lanes[1].plan_micros) / 1000.0);
  std::printf("(plan-phase totals include parse + physical planning, which "
              "run on hits too: %.2fx end-to-end)\n",
              phase_ratio);

  bool hit_ok = hit_rate >= 0.90;
  bool plan_ok = reduction >= 2.0;
  std::printf("\ngate: plan-cache hit rate %.1f%% (>= 90%% required) %s\n",
              hit_rate * 100.0, hit_ok ? "PASS" : "FAIL");
  std::printf("gate: re-plan (optimizer) reduction %.2fx (>= 2.00x required) "
              "%s\n",
              reduction, plan_ok ? "PASS" : "FAIL");
  if (enforce) {
    DT_CHECK(hit_ok) << "plan-cache gate: hit rate " << hit_rate * 100.0
                     << "% < 90%";
    DT_CHECK(plan_ok) << "plan-cache gate: re-plan (optimizer) reduction "
                      << reduction << "x < 2x";
  } else {
    std::printf("(informational run: gates enforced by --gate in tier-1's\n"
                "Release lane)\n");
  }
  return 0;
}

int RunAdaptiveFleet(core::DrugTree* dt, bool enforce) {
  bench::Banner("E15c", "adaptive knobs: mixed closed-loop fleet, real clock");
  constexpr int64_t kDuration = 1'500'000;  // 1.5s
  // Samples from the first stretch are dropped: that is the controller's
  // convergence window (it has to see a few latency windows before the
  // analytic knobs settle), and steady state is what the gate is about.
  constexpr int64_t kWarmup = 500'000;
  constexpr int kInteractiveClients = 2;
  constexpr int kAnalyticClients = 1;

  server::ServerOptions sopts;
  sopts.worker_threads = 4;
  sopts.scheduler.total_slots = 4;
  sopts.scheduler.interactive_slots = 3;
  sopts.scheduler.analytic_slots = 2;
  sopts.adaptive.enabled = true;
  sopts.adaptive.window = 32;
  sopts.adaptive.target_micros = 2'000;
  auto server = dt->MakeServer(sopts, util::RealClock::Instance());

  const char* kAnalyticSql =
      "SELECT p.family, COUNT(*), AVG(a.affinity_nm) "
      "FROM proteins p, activities a WHERE p.accession = a.accession "
      "GROUP BY p.family";
  struct Client {
    util::Histogram latency_ms;
    int64_t completed = 0;
    int64_t errors = 0;
  };
  auto run_client = [&](Client* out, uint64_t session, bool analytic) {
    util::Rng rng(session * 7919 + 17);
    // Mobile skew: each session explores a small working set of subtree
    // nodes, so its overlay statements stay resident in the plan cache.
    std::vector<std::string> hot;
    for (int i = 0; i < 8; ++i) {
      hot.push_back(dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(rng.Uniform(dt->tree().NumNodes()))));
    }
    util::Clock* wall = util::RealClock::Instance();
    int64_t started_at = wall->NowMicros();
    int64_t end_at = started_at + kDuration;
    while (wall->NowMicros() < end_at) {
      server::QueryRequest r;
      r.session_id = session;
      if (analytic) {
        r.sql = kAnalyticSql;
        r.query_class = server::QueryClass::kAnalytic;
      } else {
        r.sql = hot[rng.Uniform(hot.size())];
      }
      int64_t start = wall->NowMicros();
      auto result = server->Submit(std::move(r));
      int64_t now = wall->NowMicros();
      if (result.ok()) {
        ++out->completed;
        if (now - started_at > kWarmup) {
          out->latency_ms.Add(static_cast<double>(now - start) / 1000.0);
        }
      } else if (!result.status().IsResourceExhausted()) {
        ++out->errors;
      }
    }
  };

  std::vector<Client> clients(kInteractiveClients + kAnalyticClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kInteractiveClients + kAnalyticClients; ++i) {
    threads.emplace_back(run_client, &clients[static_cast<size_t>(i)],
                         static_cast<uint64_t>(i + 1),
                         i >= kInteractiveClients);
  }
  for (auto& t : threads) t.join();
  server->Drain();

  util::Histogram interactive_ms;
  int64_t analytic_completed = 0;
  int64_t errors = 0;
  for (int i = 0; i < kInteractiveClients + kAnalyticClients; ++i) {
    const Client& c = clients[static_cast<size_t>(i)];
    errors += c.errors;
    if (i < kInteractiveClients) {
      interactive_ms.Merge(c.latency_ms);
    } else {
      analytic_completed += c.completed;
    }
  }

  const server::AdaptiveController* ctl = server->adaptive();
  server::AdaptiveKnobs knobs = ctl->knobs(server::QueryClass::kAnalytic);
  std::printf("interactive: %lld completed, %s\n",
              (long long)interactive_ms.count(),
              bench::PercentileSummary(interactive_ms).c_str());
  std::printf("analytic:    %lld completed (errors %lld)\n",
              (long long)analytic_completed, (long long)errors);
  std::printf("controller:  %lld decisions, %lld down, %lld up; analytic "
              "parallelism now %d\n",
              (long long)ctl->decisions(), (long long)ctl->steps_down(),
              (long long)ctl->steps_up(), knobs.parallelism);
  DT_CHECK(errors == 0) << "adaptive fleet saw hard errors";

  double p99 = interactive_ms.Percentile(99);
  bool p99_ok = p99 <= 2.0;
  std::printf("\ngate: interactive p99 %.2fms (<= 2.00ms budget) %s\n", p99,
              p99_ok ? "PASS" : "FAIL");
  if (enforce) {
    DT_CHECK(p99_ok) << "adaptive gate: interactive p99 " << p99
                     << "ms > 2ms budget";
  } else {
    std::printf("(informational run: gates enforced by --gate in tier-1's\n"
                "Release lane)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  util::SimulatedClock build_clock;
  auto dt = MakeInstance(&build_clock);
  std::printf("tree: %zu nodes, %zu leaves\n", dt->tree().NumNodes(),
              dt->tree().NumLeaves());
  int rc = RunPlanCacheEfficacy(dt.get(), gate);
  if (rc != 0) return rc;
  rc = RunAdaptiveFleet(dt.get(), gate);
  drugtree::bench::DumpMetrics(metrics_flag);
  return rc;
}
