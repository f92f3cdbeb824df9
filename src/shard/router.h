// ShardRouter: the front door of the sharded, replicated serving tier.
//
//   client -> ShardRouter::Submit
//          -> route analysis (parse, interval extraction, co-partition check)
//          -> one of
//             * routed:    the single owning shard's least-loaded replica
//             * scatter:   the shard subset overlapping the predicate interval
//             * broadcast: every shard (predicate not provably partitionable)
//             * fallback:  the coordinator (a full-data replica) for plans
//                          that cannot be merged exactly (global aggregates,
//                          DISTINCT, order-less multi-shard output, ...)
//          -> per-shard sub-requests through each replica's own admission /
//             scheduler / memory subtree, inter-shard hops charged on a
//             SimulatedNetwork (virtual-clock deterministic)
//          -> merge (identity for routed; ordered stable merge + LIMIT for
//             scatter) with exact row-for-row equivalence to a single server.
//
// Replicas: each shard range has R read replicas. Sub-requests go to the
// least-loaded healthy replica; a replica marked down is excluded from
// routing, its in-flight sub-requests are cancelled, and the router retries
// the sub-request on a healthy sibling (failover).
//
// Observability: every routed request carries a router-side TraceContext
// with the kRoute / kGather phases and one fetch event per inter-shard hop;
// ExportChromeTrace() merges the router's lanes with every replica's lanes
// (prefixed "s<shard>r<replica>/"), and TailAttributionReport() extends the
// per-phase attribution with per-shard gather p99s and names the slowest
// shard.

#ifndef DRUGTREE_SHARD_ROUTER_H_
#define DRUGTREE_SHARD_ROUTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "integration/network.h"
#include "obs/metrics.h"
#include "obs/trace_store.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/server.h"
#include "shard/partitioner.h"
#include "util/clock.h"
#include "util/result.h"

namespace drugtree {
namespace shard {

enum class RouteKind {
  kRouted,     // single owning shard
  kScatter,    // proper subset of shards, merged
  kBroadcast,  // every shard, merged
  kFallback,   // coordinator (full-data replica)
};

const char* RouteKindName(RouteKind kind);

/// Folds one round-trip observation into an atomic hop-cost EWMA
/// (alpha = 1/4) and returns the stored value. The first observation seeds
/// the average directly (0 means "never observed", so cold shards don't
/// spend their first several requests averaging up from zero), and the
/// whole read-modify-write is a CAS loop: concurrent gathers on the same
/// shard each fold in exactly one observation instead of silently
/// overwriting each other.
int64_t UpdateHopCostEwma(std::atomic<int64_t>& ewma, int64_t micros);

/// The routing decision for one statement — what EXPLAIN surfaces.
struct RouteDecision {
  RouteKind kind = RouteKind::kFallback;
  std::vector<int> shards;  // target shard ids, ascending (empty = coord)
  std::string reason;       // why this kind was chosen

  /// "shards=4 broadcast (no interval constraint)" — the EXPLAIN line.
  std::string ToString() const;
};

struct RouterOptions {
  int num_shards = 4;
  int replicas_per_shard = 1;
  /// Per-replica server knobs. shard_id is stamped per replica by the
  /// router; worker_threads/slots size each replica's own pool.
  server::ServerOptions replica;
  /// Coordinator (full-data fallback replica) server knobs.
  server::ServerOptions coordinator;
  /// Inter-shard hop cost model; rides a router-owned SimulatedNetwork so
  /// virtual-clock determinism and net-channel trace lanes survive. The
  /// channel count is sized to the replica fleet automatically.
  /// A request hop carries a 256-byte serialized sub-request (router.cc).
  integration::NetworkParams hop;
  /// Retained router-side traces (kRoute/kGather phases + hop fetch events).
  size_t trace_store_capacity = 4096;
};

class ShardRouter {
 public:
  /// Builds the full topology: partitions the source tables into
  /// `options.num_shards` ranges, spins up num_shards x replicas_per_shard
  /// DrugTreeServer replicas over the per-shard catalogs, plus one
  /// coordinator server over `full_catalog`. `tree`, `index`, `sources`
  /// (including the shared ligands table) and `full_catalog` are borrowed
  /// and must outlive the router. `clock` times everything (SimulatedClock
  /// -> deterministic scatter-gather timelines).
  static util::Result<std::unique_ptr<ShardRouter>> Create(
      const phylo::Tree* tree, const phylo::TreeIndex* index,
      const ShardSourceTables& sources, query::Catalog* full_catalog,
      util::Clock* clock, const RouterOptions& options);

  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes, executes, and merges one request. Blocks until the merged
  /// result is ready (sub-requests themselves run asynchronously on the
  /// replicas' worker pools). The merged outcome's physical_plan is
  /// prefixed with the routing line ("route: shards=2 scatter ...").
  util::Result<query::QueryOutcome> Submit(server::QueryRequest request);

  /// The routing decision for a statement, without executing it.
  RouteDecision Route(const std::string& sql) const;

  // Replica health -------------------------------------------------------

  /// Marks a replica down: it is excluded from routing and every tracked
  /// in-flight sub-request on it is cancelled (the router fails those over
  /// to a healthy sibling).
  void MarkReplicaDown(int shard, int replica);
  void MarkReplicaUp(int shard, int replica);
  bool replica_down(int shard, int replica) const;

  // Introspection --------------------------------------------------------

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int replicas_per_shard() const { return options_.replicas_per_shard; }
  std::vector<ShardRange> ranges() const;
  server::DrugTreeServer* replica_server(int shard, int replica);
  server::DrugTreeServer* coordinator() { return coordinator_.get(); }
  util::Clock* clock() const { return clock_; }

  /// Router-side completed request traces (route/gather timelines).
  obs::TraceStore* trace_store() { return trace_store_.get(); }

  struct RouteCounters {
    int64_t routed = 0;
    int64_t scatter = 0;
    int64_t broadcast = 0;
    int64_t fallback = 0;
    int64_t failed = 0;  // requests whose merged result was an error
  };
  RouteCounters route_counters() const;

  struct ShardCounters {
    int64_t sub_requests = 0;
    int64_t shed = 0;             // sub-requests rejected at shard admission
    int64_t deadline_missed = 0;  // sub-requests cancelled past deadline
    int64_t failovers = 0;        // retries on a sibling after a down replica
  };
  ShardCounters shard_counters(int shard) const;

  /// Smoothed per-shard round-trip hop cost (micros) — what per-shard
  /// deadlines are derived from.
  int64_t hop_cost_micros(int shard) const;

  /// Aggregated JSON: topology (ranges, replica fleet), router counters,
  /// per-shard counters + hop costs, and every replica's (and the
  /// coordinator's) full DrugTreeServer::Statusz() snapshot.
  std::string Statusz();

  /// Router-phase tail attribution (route/gather/fetch_blocked shares) plus
  /// per-shard gather p99s and the slowest shard. Publishes
  /// router.tail.shard_p99_micros{shard=} gauges.
  std::string TailAttributionReport();

  /// Chrome trace of the whole tier: router lanes plus every replica's
  /// lanes prefixed "s<shard>r<replica>/" and the coordinator's "coord/".
  std::string ExportChromeTrace();

  /// Drains every replica and the coordinator.
  void Drain();

 private:
  struct Replica {
    std::string id;  // "s2r0"
    std::unique_ptr<server::DrugTreeServer> server;
    std::atomic<bool> down{false};
    std::atomic<int64_t> in_flight{0};
    std::mutex mu;  // guards handles
    uint64_t next_token = 0;
    std::map<uint64_t, server::ResponseHandle> handles;  // in-flight
  };

  struct Shard {
    std::unique_ptr<ShardPartition> partition;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::atomic<int64_t> hop_cost_ewma{0};
    obs::Counter* sub_requests = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* failovers = nullptr;
    obs::HistogramMetric* gather_ms = nullptr;
  };

  ShardRouter() = default;

  /// Routing analysis over a parsed SELECT (interval extraction,
  /// co-partition grouping, scatter-safety).
  RouteDecision RouteSelect(const query::SelectStatement& select) const;
  /// Healthy least-loaded replica index, or -1 when all are down. Orders
  /// candidates by alert-derived health before in-flight load, so a
  /// browned-out (degraded/critical) replica sheds traffic to siblings.
  int PickReplica(const Shard& shard) const;
  /// Advances telemetry (sample + alert evaluation) on every replica and
  /// the coordinator; called once per routed request.
  void TickTelemetry();
  /// Sub-request with the per-shard deadline (request deadline minus the
  /// shard's smoothed hop cost).
  server::QueryRequest MakeSubRequest(const server::QueryRequest& request,
                                      int shard) const;
  /// Tracked submit on a replica; paired with FinishSub after Wait.
  server::ResponseHandle SubmitTracked(Replica& replica,
                                       server::QueryRequest sub,
                                       uint64_t* token);
  void FinishSub(Replica& replica, uint64_t token);
  util::Result<query::QueryOutcome> ScatterGather(
      const RouteDecision& decision, const server::QueryRequest& request,
      const query::SelectStatement& select, obs::TraceContext* trace);
  void ObserveHopCost(Shard& shard, int64_t micros);

  const phylo::Tree* tree_ = nullptr;
  const phylo::TreeIndex* index_ = nullptr;
  query::Catalog* full_catalog_ = nullptr;
  util::Clock* clock_ = nullptr;
  RouterOptions options_;
  std::vector<ShardRange> ranges_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<server::DrugTreeServer> coordinator_;
  std::unique_ptr<integration::SimulatedNetwork> hop_network_;
  std::unique_ptr<obs::TraceStore> trace_store_;
  std::atomic<uint64_t> next_trace_id_{1};

  obs::Counter* decision_counters_[4] = {};  // indexed by RouteKind
  obs::Counter* failed_counter_ = nullptr;

  mutable std::mutex counters_mu_;
  RouteCounters route_counters_;
  std::vector<ShardCounters> shard_counters_;
};

/// Merges scatter partials into one exact result: concatenates the per-shard
/// rows in shard order, then orders them by the statement's ORDER BY keys
/// and applies LIMIT through the RowSorter the single-server SortOp uses
/// (without ORDER BY, LIMIT truncates the concatenation). Exposed for tests.
util::Result<query::QueryResult> MergePartials(
    std::vector<query::QueryResult> partials,
    const query::SelectStatement& select, const phylo::Tree* tree,
    const phylo::TreeIndex* index);

}  // namespace shard
}  // namespace drugtree

#endif  // DRUGTREE_SHARD_ROUTER_H_
