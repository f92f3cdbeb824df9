#include "shard/router.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "query/expr.h"
#include "query/physical.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/string_util.h"

namespace drugtree {
namespace shard {

namespace {

/// Payload of a request hop (the serialized sub-request).
constexpr uint64_t kHopRequestBytes = 256;

/// The partitioned relations and, per relation, the columns an equi-join may
/// use without crossing shards: equal values imply the same owner shard
/// (accession via the activities co-partition; node_id / pre because a
/// node's rows all carry that node's pre number).
const std::map<std::string, std::set<std::string>>& PartitionedLinkColumns() {
  static const auto* kColumns = new std::map<std::string, std::set<std::string>>{
      {"proteins", {"accession", "node_id", "pre"}},
      {"activities", {"accession"}},
      {"tree_nodes", {"node_id", "pre"}},
      {"node_overlay", {"node_id", "pre"}},
  };
  return *kColumns;
}

bool SplitQualified(const std::string& qualified, std::string* alias,
                    std::string* column) {
  size_t dot = qualified.find('.');
  if (dot == std::string::npos) return false;
  *alias = qualified.substr(0, dot);
  *column = qualified.substr(dot + 1);
  return true;
}

std::string StatusLabel(const util::Status& status) {
  if (status.ok()) return "ok";
  if (status.IsResourceExhausted()) return "shed";
  if (status.IsCancelled()) return "cancelled";
  return status.ToString();
}

}  // namespace

const char* RouteKindName(RouteKind kind) {
  switch (kind) {
    case RouteKind::kRouted: return "routed";
    case RouteKind::kScatter: return "scatter";
    case RouteKind::kBroadcast: return "broadcast";
    case RouteKind::kFallback: return "fallback";
  }
  return "unknown";
}

std::string RouteDecision::ToString() const {
  return util::StringPrintf("shards=%d %s (%s)",
                            static_cast<int>(shards.size()),
                            RouteKindName(kind), reason.c_str());
}

util::Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const phylo::Tree* tree, const phylo::TreeIndex* index,
    const ShardSourceTables& sources, query::Catalog* full_catalog,
    util::Clock* clock, const RouterOptions& options) {
  if (tree == nullptr || index == nullptr || full_catalog == nullptr ||
      clock == nullptr) {
    return util::Status::InvalidArgument(
        "tree, index, full catalog, and clock are required");
  }
  if (options.replicas_per_shard < 1) {
    return util::Status::InvalidArgument("replicas_per_shard must be >= 1");
  }
  DRUGTREE_ASSIGN_OR_RETURN(
      auto partitions,
      IntervalPartitioner::Partition(*tree, *index, sources,
                                     options.num_shards));

  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->tree_ = tree;
  router->index_ = index;
  router->full_catalog_ = full_catalog;
  router->clock_ = clock;
  router->options_ = options;
  for (const auto& p : partitions) router->ranges_.push_back(p->range);

  // One channel per replica so concurrent fan-out hops overlap in virtual
  // time instead of serializing on the historical single-channel link.
  integration::NetworkParams hop = options.hop;
  hop.max_concurrency = std::max(
      hop.max_concurrency, options.num_shards * options.replicas_per_shard);
  router->hop_network_ =
      std::make_unique<integration::SimulatedNetwork>(clock, hop);
  router->trace_store_ =
      std::make_unique<obs::TraceStore>(options.trace_store_capacity, 0);

  auto* registry = obs::MetricRegistry::Default();
  static const char* kKinds[] = {"routed", "scatter", "broadcast", "fallback"};
  for (int k = 0; k < 4; ++k) {
    router->decision_counters_[k] =
        registry->GetCounter("router.requests", {{"decision", kKinds[k]}});
  }
  router->failed_counter_ =
      registry->GetCounter("router.requests", {{"decision", "failed"}});

  router->shard_counters_.resize(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->partition = std::move(partitions[static_cast<size_t>(s)]);
    obs::Labels labels = {{"shard", util::StringPrintf("s%d", s)}};
    shard->sub_requests = registry->GetCounter("router.shard.requests", labels);
    shard->shed = registry->GetCounter("router.shard.shed", labels);
    shard->deadline_missed =
        registry->GetCounter("router.shard.deadline_missed", labels);
    shard->failovers = registry->GetCounter("router.shard.failover", labels);
    shard->gather_ms =
        registry->GetHistogram("router.shard.gather_ms", labels);
    for (int r = 0; r < options.replicas_per_shard; ++r) {
      auto replica = std::make_unique<Replica>();
      replica->id = util::StringPrintf("s%dr%d", s, r);
      server::ServerOptions so = options.replica;
      so.shard_id = replica->id;
      replica->server = std::make_unique<server::DrugTreeServer>(
          shard->partition->catalog.get(), clock, so);
      shard->replicas.push_back(std::move(replica));
    }
    router->shards_.push_back(std::move(shard));
  }

  server::ServerOptions co = options.coordinator;
  co.shard_id = "coord";
  router->coordinator_ =
      std::make_unique<server::DrugTreeServer>(full_catalog, clock, co);
  return router;
}

ShardRouter::~ShardRouter() = default;

std::vector<ShardRange> ShardRouter::ranges() const { return ranges_; }

server::DrugTreeServer* ShardRouter::replica_server(int shard, int replica) {
  if (shard < 0 || shard >= num_shards() || replica < 0 ||
      replica >= static_cast<int>(shards_[static_cast<size_t>(shard)]
                                      ->replicas.size())) {
    return nullptr;
  }
  return shards_[static_cast<size_t>(shard)]
      ->replicas[static_cast<size_t>(replica)]
      ->server.get();
}

RouteDecision ShardRouter::Route(const std::string& sql) const {
  auto parsed = query::ParseStatement(sql);
  if (!parsed.ok()) {
    RouteDecision d;
    d.kind = RouteKind::kFallback;
    d.reason = "parse error";
    return d;
  }
  return RouteSelect(parsed->select);
}

RouteDecision ShardRouter::RouteSelect(
    const query::SelectStatement& select) const {
  RouteDecision d;
  const int n = static_cast<int>(ranges_.size());

  std::map<std::string, std::string> alias_to_table;
  std::vector<std::string> part_aliases;
  for (const auto& t : select.tables) {
    const std::string& alias = t.alias.empty() ? t.table : t.alias;
    alias_to_table[alias] = t.table;
    if (PartitionedLinkColumns().count(t.table) > 0) {
      part_aliases.push_back(alias);
    }
  }
  if (part_aliases.empty()) {
    d.kind = RouteKind::kFallback;
    d.reason = "no partitioned tables";
    return d;
  }

  // Union-find over the partitioned aliases: an equi-join on link columns
  // keeps both sides in one co-partitioned group (matching rows share an
  // owner shard), so one group member's interval constraint confines the
  // whole group.
  std::map<std::string, int> alias_idx;
  for (size_t i = 0; i < part_aliases.size(); ++i) {
    alias_idx[part_aliases[i]] = static_cast<int>(i);
  }
  std::vector<int> parent(part_aliases.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    parent[static_cast<size_t>(find(a))] = find(b);
  };
  auto is_link = [&](const std::string& alias, const std::string& column,
                     int* idx) {
    auto ai = alias_idx.find(alias);
    if (ai == alias_idx.end()) return false;
    const auto& links = PartitionedLinkColumns().at(alias_to_table[alias]);
    if (links.count(column) == 0) return false;
    *idx = ai->second;
    return true;
  };

  // Per-alias shard cover: shard s stays true while it may hold rows
  // matching every conjunct on that alias. Supersets are always exact (each
  // shard still evaluates the full predicate), so anything we cannot
  // analyze simply leaves the cover wide.
  std::vector<std::vector<bool>> cover(part_aliases.size(),
                                       std::vector<bool>(n, true));

  for (const auto& c : query::SplitConjuncts(select.where)) {
    if (!c) continue;
    if (c->kind == query::ExprKind::kBinary &&
        c->bin_op == query::BinaryOp::kEq && c->children.size() == 2 &&
        c->children[0]->kind == query::ExprKind::kColumnRef &&
        c->children[1]->kind == query::ExprKind::kColumnRef) {
      std::string la, lc, ra, rc;
      int li = 0, ri = 0;
      if (SplitQualified(c->children[0]->column, &la, &lc) &&
          SplitQualified(c->children[1]->column, &ra, &rc) &&
          is_link(la, lc, &li) && is_link(ra, rc, &ri)) {
        // accession joins accession (the activities co-partition);
        // node_id/pre join their own kind (same node -> same pre -> same
        // shard). Mixed pairs prove nothing.
        const bool l_acc = (lc == "accession"), r_acc = (rc == "accession");
        if (l_acc == r_acc && (l_acc || lc == rc)) unite(li, ri);
      }
      continue;
    }
    if (c->kind == query::ExprKind::kFunction &&
        (c->function == "SUBTREE" || c->function == "ANCESTOR_OF") &&
        c->children.size() == 2 &&
        c->children[0]->kind == query::ExprKind::kColumnRef &&
        c->children[1]->kind == query::ExprKind::kLiteral) {
      std::string alias, column;
      if (!SplitQualified(c->children[0]->column, &alias, &column)) continue;
      auto ai = alias_idx.find(alias);
      auto at = alias_to_table.find(alias);
      if (ai == alias_idx.end() || at == alias_to_table.end()) continue;
      const query::TreeBinding* binding =
          full_catalog_->GetTreeBinding(at->second);
      if (binding == nullptr || binding->node_col != column) continue;
      // Resolve the literal node exactly like the optimizer rewrite does.
      const storage::Value& lit = c->children[1]->literal;
      phylo::NodeId node = phylo::kInvalidNode;
      if (lit.type() == storage::ValueType::kString) {
        node = tree_->FindByName(lit.AsString());
      } else if (lit.type() == storage::ValueType::kInt64) {
        auto id = static_cast<phylo::NodeId>(lit.AsInt64());
        if (tree_->Contains(id)) node = id;
      }
      if (node == phylo::kInvalidNode) {
        // Let the coordinator reproduce the single-server plan-time
        // "tree node not found" error verbatim.
        d.kind = RouteKind::kFallback;
        d.reason = "unresolvable tree node";
        return d;
      }
      std::vector<bool> pred(static_cast<size_t>(n), false);
      if (c->function == "SUBTREE") {
        // Matching rows carry pre numbers inside [pre(X), post(X)].
        const int32_t lo = index_->Pre(node);
        const int32_t hi = index_->Post(node);
        for (int s = 0; s < n; ++s) {
          pred[static_cast<size_t>(s)] =
              ranges_[static_cast<size_t>(s)].Overlaps(lo, hi);
        }
      } else {
        // ANCESTOR_OF: matching rows sit on the root..X path.
        for (phylo::NodeId a = node; a != phylo::kInvalidNode;
             a = tree_->node(a).parent) {
          pred[static_cast<size_t>(
              IntervalPartitioner::OwnerOf(ranges_, index_->Pre(a)))] = true;
        }
      }
      auto& cv = cover[static_cast<size_t>(ai->second)];
      for (int s = 0; s < n; ++s) {
        cv[static_cast<size_t>(s)] =
            cv[static_cast<size_t>(s)] && pred[static_cast<size_t>(s)];
      }
    }
  }

  // Group cover = intersection of member covers.
  std::map<int, std::vector<bool>> group_cover;
  for (size_t i = 0; i < part_aliases.size(); ++i) {
    int root = find(static_cast<int>(i));
    auto it =
        group_cover.emplace(root, std::vector<bool>(static_cast<size_t>(n),
                                                    true))
            .first;
    for (int s = 0; s < n; ++s) {
      it->second[static_cast<size_t>(s)] =
          it->second[static_cast<size_t>(s)] && cover[i][static_cast<size_t>(s)];
    }
  }
  std::vector<int> target;
  if (group_cover.size() == 1) {
    const auto& cv = group_cover.begin()->second;
    for (int s = 0; s < n; ++s) {
      if (cv[static_cast<size_t>(s)]) target.push_back(s);
    }
  } else {
    // Unlinked partitioned groups join across the partition axis; only
    // provably shard-local when every group is confined to one identical
    // shard.
    bool first = true;
    bool same_single = true;
    std::vector<int> candidate;
    for (const auto& entry : group_cover) {
      std::vector<int> t;
      for (int s = 0; s < n; ++s) {
        if (entry.second[static_cast<size_t>(s)]) t.push_back(s);
      }
      if (first) {
        candidate = t;
        first = false;
      }
      same_single = same_single && t.size() == 1 && t == candidate;
    }
    if (!same_single) {
      d.kind = RouteKind::kFallback;
      d.reason = "cross-shard join (unlinked partitioned tables)";
      return d;
    }
    target = candidate;
  }

  if (target.empty()) {
    // Disjoint interval covers: no shard can hold a matching row, so any
    // single shard computes the global (empty-input) result exactly.
    d.kind = RouteKind::kRouted;
    d.shards = {0};
    d.reason = "disjoint interval covers";
    return d;
  }
  if (target.size() == 1) {
    // The owning shard's matching rows ARE the global matching rows, so
    // every query shape (aggregates included) is exact on it.
    d.kind = RouteKind::kRouted;
    d.shards = std::move(target);
    d.reason = "interval confined to one shard";
    return d;
  }

  // Multi-shard output is merged by concat + stable re-sort + LIMIT; that
  // is only exact for plans this merge can reproduce.
  auto fallback = [&d](std::string why) {
    d.kind = RouteKind::kFallback;
    d.shards.clear();
    d.reason = std::move(why);
    return d;
  };
  if (!select.group_by.empty()) {
    return fallback("group by needs global aggregation");
  }
  if (select.distinct) return fallback("distinct needs global dedup");
  for (const auto& item : select.select) {
    if (!item.star && item.expr->ContainsAggregate()) {
      return fallback("aggregate needs global state");
    }
  }
  if (select.order_by.empty()) return fallback("unordered multi-shard output");

  // Merge sort keys must be computable from the output columns alone.
  std::vector<storage::Column> columns;
  for (const auto& item : select.select) {
    if (item.star) {
      for (const auto& t : select.tables) {
        const std::string& alias = t.alias.empty() ? t.table : t.alias;
        auto table = full_catalog_->Lookup(t.table);
        if (!table.ok()) return fallback("unknown table");
        for (const auto& col : (*table)->schema().columns()) {
          columns.push_back(
              {alias + "." + col.name, storage::ValueType::kString, true});
        }
      }
    } else {
      columns.push_back({item.alias, storage::ValueType::kString, true});
    }
  }
  auto schema = storage::Schema::Create(std::move(columns));
  if (!schema.ok()) return fallback("ambiguous output columns");
  for (const auto& key : select.order_by) {
    if (key.expr->ContainsAggregate()) return fallback("aggregate order key");
    auto bound = key.expr->Clone();
    if (!query::BindExpr(bound.get(), *schema).ok()) {
      return fallback("order key not named in output");
    }
  }

  d.shards = std::move(target);
  if (static_cast<int>(d.shards.size()) == n) {
    d.kind = RouteKind::kBroadcast;
    d.reason = "no confining interval";
  } else {
    d.kind = RouteKind::kScatter;
    d.reason = util::StringPrintf("interval spans %d shards",
                                  static_cast<int>(d.shards.size()));
  }
  return d;
}

int ShardRouter::PickReplica(const Shard& shard) const {
  // Health-then-load ordering: a replica whose alert-derived health is worse
  // (degraded, critical) only takes traffic when every healthier sibling is
  // down. Within a health tier the least-loaded replica wins; ties keep the
  // lowest index so traffic deterministically returns after recovery.
  int best = -1;
  int best_health = 0;
  int64_t best_load = 0;
  for (size_t i = 0; i < shard.replicas.size(); ++i) {
    const Replica& r = *shard.replicas[i];
    if (r.down.load(std::memory_order_acquire)) continue;
    int health = static_cast<int>(r.server->health());
    int64_t load = r.in_flight.load(std::memory_order_relaxed);
    if (best < 0 || health < best_health ||
        (health == best_health && load < best_load)) {
      best = static_cast<int>(i);
      best_health = health;
      best_load = load;
    }
  }
  return best;
}

server::QueryRequest ShardRouter::MakeSubRequest(
    const server::QueryRequest& request, int shard) const {
  server::QueryRequest sub = request;
  if (request.deadline_micros > 0) {
    // The sub-deadline leaves room to ship the partial back: request
    // deadline minus the shard's observed round-trip hop cost (cost-model
    // estimate until the first observation). An already-expired
    // sub-deadline cancels on the shard before dispatch, deterministically.
    int64_t hop = shards_[static_cast<size_t>(shard)]->hop_cost_ewma.load(
        std::memory_order_relaxed);
    if (hop == 0) {
      hop = 2 * hop_network_->EstimateMicros(kHopRequestBytes);
    }
    sub.deadline_micros = request.deadline_micros - hop;
  }
  return sub;
}

server::ResponseHandle ShardRouter::SubmitTracked(Replica& replica,
                                                  server::QueryRequest sub,
                                                  uint64_t* token) {
  server::ResponseHandle handle = replica.server->SubmitAsync(std::move(sub));
  {
    std::lock_guard<std::mutex> lock(replica.mu);
    *token = replica.next_token++;
    replica.handles.emplace(*token, handle);
  }
  replica.in_flight.fetch_add(1, std::memory_order_relaxed);
  // Down-mark racing with the submit: make sure the new handle is cancelled
  // too, so the failover path picks it up.
  if (replica.down.load(std::memory_order_acquire)) handle.Cancel();
  return handle;
}

void ShardRouter::FinishSub(Replica& replica, uint64_t token) {
  {
    std::lock_guard<std::mutex> lock(replica.mu);
    replica.handles.erase(token);
  }
  replica.in_flight.fetch_sub(1, std::memory_order_relaxed);
}

int64_t UpdateHopCostEwma(std::atomic<int64_t>& ewma, int64_t micros) {
  int64_t prev = ewma.load(std::memory_order_relaxed);
  int64_t next;
  do {
    next = prev == 0 ? micros : (3 * prev + micros) / 4;
  } while (!ewma.compare_exchange_weak(prev, next,
                                       std::memory_order_relaxed));
  return next;
}

void ShardRouter::ObserveHopCost(Shard& shard, int64_t micros) {
  UpdateHopCostEwma(shard.hop_cost_ewma, micros);
}

util::Result<query::QueryOutcome> ShardRouter::Submit(
    server::QueryRequest request) {
  // Tick every member's telemetry before routing: a replica that alerts
  // divert traffic away from would otherwise never sample again, so its
  // burn-rate window could not roll over and the alert would stick firing.
  TickTelemetry();
  obs::TraceContext trace(
      next_trace_id_.fetch_add(1, std::memory_order_relaxed), clock_);
  trace.set_session_id(request.session_id);
  trace.set_query_class(server::QueryClassName(request.query_class));
  trace.set_lane("router");
  trace.set_sql(request.sql);

  trace.BeginPhase(obs::TracePhase::kRoute);
  auto parsed = query::ParseStatement(request.sql);
  RouteDecision decision;
  bool explain = false;
  if (!parsed.ok()) {
    decision.kind = RouteKind::kFallback;
    decision.reason = "parse error";
  } else {
    explain = parsed->explain != query::ExplainMode::kNone;
    decision = RouteSelect(parsed->select);
  }
  trace.EndPhase(obs::TracePhase::kRoute);

  decision_counters_[static_cast<int>(decision.kind)]->Increment();
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    switch (decision.kind) {
      case RouteKind::kRouted: ++route_counters_.routed; break;
      case RouteKind::kScatter: ++route_counters_.scatter; break;
      case RouteKind::kBroadcast: ++route_counters_.broadcast; break;
      case RouteKind::kFallback: ++route_counters_.fallback; break;
    }
  }

  util::Result<query::QueryOutcome> out = util::Status::Internal("unreached");
  if (explain || decision.kind == RouteKind::kFallback) {
    // EXPLAIN always plans on the coordinator (it sees the full catalog and
    // never executes); the route line below still reports the decision the
    // statement would get.
    out = coordinator_->Submit(std::move(request));
  } else {
    out = ScatterGather(decision, request, parsed->select, &trace);
  }

  if (out.ok()) {
    out->physical_plan =
        "route: " + decision.ToString() + "\n" + out->physical_plan;
  } else {
    failed_counter_->Increment();
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++route_counters_.failed;
  }
  trace_store_->Record(trace.Finish(StatusLabel(out.status()), out.ok()));
  return out;
}

util::Result<query::QueryOutcome> ShardRouter::ScatterGather(
    const RouteDecision& decision, const server::QueryRequest& request,
    const query::SelectStatement& select, obs::TraceContext* trace) {
  // Install the router trace so hop fetch events and blocked time attribute
  // to this request.
  obs::ScopedTraceContext install(trace);
  trace->BeginPhase(obs::TracePhase::kGather);
  auto finish = [trace](util::Result<query::QueryOutcome> r)
      -> util::Result<query::QueryOutcome> {
    trace->EndPhase(obs::TracePhase::kGather);
    return r;
  };

  struct Sub {
    int shard = -1;
    Replica* replica = nullptr;
    uint64_t token = 0;
    server::ResponseHandle handle;
    int64_t hop_charged = 0;
    int64_t start_micros = 0;
  };

  // 1. Pick a replica per target shard and charge every request hop before
  //    advancing the clock once: the fan-out overlaps in virtual time.
  std::vector<Sub> subs;
  subs.reserve(decision.shards.size());
  int64_t max_ready = 0;
  for (int s : decision.shards) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    int ri = PickReplica(shard);
    if (ri < 0) {
      return finish(util::Status::Aborted(
          util::StringPrintf("shard %d has no healthy replica", s)));
    }
    Sub sub;
    sub.shard = s;
    sub.replica = shard.replicas[static_cast<size_t>(ri)].get();
    sub.start_micros = clock_->NowMicros();
    auto hop = hop_network_->SubmitRequest(kHopRequestBytes);
    sub.hop_charged = hop.charged_micros;
    max_ready = std::max(max_ready, hop.ready_micros);
    subs.push_back(std::move(sub));
  }
  hop_network_->WaitUntil(max_ready);

  // 2. Dispatch every sub-request, then gather in shard order. On a
  //    SimulatedClock the clock is frozen while replicas execute, so the
  //    scatter timeline is deterministic regardless of worker interleaving.
  for (Sub& sub : subs) {
    Shard& shard = *shards_[static_cast<size_t>(sub.shard)];
    sub.handle = SubmitTracked(*sub.replica,
                               MakeSubRequest(request, sub.shard), &sub.token);
    shard.sub_requests->Increment();
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++shard_counters_[static_cast<size_t>(sub.shard)].sub_requests;
  }

  std::vector<query::QueryOutcome> outcomes;
  outcomes.reserve(subs.size());
  util::Status first_error;
  for (Sub& sub : subs) {
    Shard& shard = *shards_[static_cast<size_t>(sub.shard)];
    auto res = sub.handle.Wait();
    FinishSub(*sub.replica, sub.token);

    // Failover: a sub-request that failed because its replica was marked
    // down retries on a healthy sibling (fresh hop, fresh deadline).
    while (!res.ok() && sub.replica->down.load(std::memory_order_acquire)) {
      int ri = PickReplica(shard);
      if (ri < 0) break;
      sub.replica = shard.replicas[static_cast<size_t>(ri)].get();
      shard.failovers->Increment();
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++shard_counters_[static_cast<size_t>(sub.shard)].failovers;
      }
      auto hop = hop_network_->SubmitRequest(kHopRequestBytes);
      hop_network_->WaitUntil(hop.ready_micros);
      sub.hop_charged += hop.charged_micros;
      sub.handle = SubmitTracked(
          *sub.replica, MakeSubRequest(request, sub.shard), &sub.token);
      shard.sub_requests->Increment();
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++shard_counters_[static_cast<size_t>(sub.shard)].sub_requests;
      }
      res = sub.handle.Wait();
      FinishSub(*sub.replica, sub.token);
    }

    if (!res.ok()) {
      if (res.status().IsResourceExhausted()) {
        shard.shed->Increment();
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++shard_counters_[static_cast<size_t>(sub.shard)].shed;
      } else if (res.status().IsCancelled()) {
        shard.deadline_missed->Increment();
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++shard_counters_[static_cast<size_t>(sub.shard)].deadline_missed;
      }
      if (first_error.ok()) {
        first_error = res.status().WithContext(
            util::StringPrintf("shard %d", sub.shard));
      }
      continue;  // keep gathering so in-flight siblings complete cleanly
    }

    // Response hop, sized by the partial result.
    auto hop = hop_network_->SubmitRequest(res->result.ApproxBytes());
    hop_network_->WaitUntil(hop.ready_micros);
    ObserveHopCost(shard, sub.hop_charged + hop.charged_micros);
    shard.gather_ms->Observe(
        static_cast<double>(clock_->NowMicros() - sub.start_micros) / 1000.0);
    outcomes.push_back(std::move(res).ValueUnsafe());
  }
  if (!first_error.ok()) return finish(std::move(first_error));
  trace->EndPhase(obs::TracePhase::kGather);

  // 3. Merge (identity for a single shard).
  obs::TracePhaseScope serialize(obs::TracePhase::kSerialize);
  if (outcomes.size() == 1) return std::move(outcomes.front());
  query::QueryOutcome merged;
  merged.logical_plan = outcomes.front().logical_plan;
  merged.physical_plan = outcomes.front().physical_plan;
  std::vector<query::QueryResult> partials;
  partials.reserve(outcomes.size());
  for (auto& o : outcomes) {
    merged.stats.rows_scanned += o.stats.rows_scanned;
    merged.stats.rows_index_fetched += o.stats.rows_index_fetched;
    merged.stats.rows_joined += o.stats.rows_joined;
    merged.stats.predicate_evals += o.stats.predicate_evals;
    merged.stats.bytes_scanned += o.stats.bytes_scanned;
    partials.push_back(std::move(o.result));
  }
  auto result = MergePartials(std::move(partials), select, tree_, index_);
  if (!result.ok()) return result.status();
  merged.result = std::move(result).ValueUnsafe();
  return merged;
}

util::Result<query::QueryResult> MergePartials(
    std::vector<query::QueryResult> partials,
    const query::SelectStatement& select, const phylo::Tree* tree,
    const phylo::TreeIndex* index) {
  if (partials.empty()) {
    return util::Status::InvalidArgument("no partial results to merge");
  }
  query::QueryResult merged;
  merged.columns = partials.front().columns;
  size_t total = 0;
  for (const auto& p : partials) total += p.rows.size();
  merged.rows.reserve(total);
  for (auto& p : partials) {
    if (p.columns != merged.columns) {
      return util::Status::Internal("partial results disagree on columns");
    }
    for (auto& row : p.rows) merged.rows.push_back(std::move(row));
  }

  const int64_t cap = select.limit.has_value() ? *select.limit : -1;
  if (!select.order_by.empty()) {
    std::vector<storage::Column> columns;
    columns.reserve(merged.columns.size());
    for (const auto& name : merged.columns) {
      columns.push_back({name, storage::ValueType::kString, true});
    }
    DRUGTREE_ASSIGN_OR_RETURN(storage::Schema schema,
                              storage::Schema::Create(std::move(columns)));
    std::vector<query::OrderKey> keys;
    keys.reserve(select.order_by.size());
    for (const auto& k : select.order_by) {
      auto bound = k.expr->Clone();
      DRUGTREE_RETURN_IF_ERROR(query::BindExpr(bound.get(), schema));
      keys.push_back({std::move(bound), k.ascending});
    }
    // SortOp's ordering rule, so the merged order matches a single server's
    // sort of the same rows (stable over the concat order, which itself
    // preserves per-shard insertion order).
    query::RowSorter sorter(keys, query::EvalContext{tree, index}, cap);
    for (auto& row : merged.rows) {
      *sorter.next_row() = std::move(row);
      sorter.Add();
    }
    DRUGTREE_RETURN_IF_ERROR(sorter.Finish());
    merged.rows.clear();
    for (size_t i = 0; i < sorter.size(); ++i) {
      merged.rows.push_back(std::move(sorter.row(i)));
    }
  } else if (cap >= 0 && merged.rows.size() > static_cast<size_t>(cap)) {
    merged.rows.resize(static_cast<size_t>(cap));
  }
  return merged;
}

void ShardRouter::MarkReplicaDown(int shard, int replica) {
  server::DrugTreeServer* server = replica_server(shard, replica);
  if (server == nullptr) return;
  Replica& r = *shards_[static_cast<size_t>(shard)]
                     ->replicas[static_cast<size_t>(replica)];
  r.down.store(true, std::memory_order_release);
  std::vector<server::ResponseHandle> in_flight;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    in_flight.reserve(r.handles.size());
    for (auto& entry : r.handles) in_flight.push_back(entry.second);
  }
  for (auto& handle : in_flight) handle.Cancel();
}

void ShardRouter::MarkReplicaUp(int shard, int replica) {
  if (replica_server(shard, replica) == nullptr) return;
  shards_[static_cast<size_t>(shard)]
      ->replicas[static_cast<size_t>(replica)]
      ->down.store(false, std::memory_order_release);
}

bool ShardRouter::replica_down(int shard, int replica) const {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return false;
  const auto& reps = shards_[static_cast<size_t>(shard)]->replicas;
  if (replica < 0 || replica >= static_cast<int>(reps.size())) return false;
  return reps[static_cast<size_t>(replica)]->down.load(
      std::memory_order_acquire);
}

ShardRouter::RouteCounters ShardRouter::route_counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return route_counters_;
}

ShardRouter::ShardCounters ShardRouter::shard_counters(int shard) const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  if (shard < 0 || shard >= static_cast<int>(shard_counters_.size())) {
    return {};
  }
  return shard_counters_[static_cast<size_t>(shard)];
}

int64_t ShardRouter::hop_cost_micros(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return 0;
  return shards_[static_cast<size_t>(shard)]->hop_cost_ewma.load(
      std::memory_order_relaxed);
}

std::string ShardRouter::Statusz() {
  RouteCounters rc = route_counters();
  std::string out = util::StringPrintf(
      "{\"router\":{\"num_shards\":%d,\"replicas_per_shard\":%d,"
      "\"decisions\":{\"routed\":%lld,\"scatter\":%lld,\"broadcast\":%lld,"
      "\"fallback\":%lld,\"failed\":%lld},"
      "\"trace_store\":{\"recorded\":%lld,\"dropped\":%lld},\"topology\":[",
      num_shards(), replicas_per_shard(), static_cast<long long>(rc.routed),
      static_cast<long long>(rc.scatter),
      static_cast<long long>(rc.broadcast),
      static_cast<long long>(rc.fallback), static_cast<long long>(rc.failed),
      static_cast<long long>(trace_store_->total_recorded()),
      static_cast<long long>(trace_store_->dropped()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardCounters sc = shard_counters(static_cast<int>(s));
    if (s > 0) out += ",";
    out += util::StringPrintf(
        "{\"shard\":%d,\"pre_lo\":%d,\"pre_hi\":%d,\"leaves\":%lld,"
        "\"hop_cost_micros\":%lld,\"sub_requests\":%lld,\"shed\":%lld,"
        "\"deadline_missed\":%lld,\"failovers\":%lld,\"replicas\":[",
        shard.partition->range.shard, shard.partition->range.pre_lo,
        shard.partition->range.pre_hi,
        static_cast<long long>(shard.partition->range.leaves),
        static_cast<long long>(hop_cost_micros(static_cast<int>(s))),
        static_cast<long long>(sc.sub_requests),
        static_cast<long long>(sc.shed),
        static_cast<long long>(sc.deadline_missed),
        static_cast<long long>(sc.failovers));
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      Replica& replica = *shard.replicas[r];
      if (r > 0) out += ",";
      out += util::StringPrintf(
          "{\"id\":\"%s\",\"down\":%s,\"health\":\"%s\",\"statusz\":",
          replica.id.c_str(),
          replica.down.load(std::memory_order_acquire) ? "true" : "false",
          obs::HealthStateName(replica.server->health()));
      out += replica.server->Statusz();
      out += "}";
    }
    out += "]}";
  }
  out += "],\"coordinator\":";
  out += coordinator_->Statusz();
  out += "}}";
  return out;
}

std::string ShardRouter::TailAttributionReport() {
  auto records = trace_store_->Snapshot();
  std::string out;
  for (const auto& a : obs::ComputeTailAttribution(records)) {
    out += a.ToString();
    out += "\n";
  }
  auto* registry = obs::MetricRegistry::Default();
  int slowest = -1;
  double slowest_p99 = -1.0;
  for (int s = 0; s < num_shards(); ++s) {
    double p99_ms =
        shards_[static_cast<size_t>(s)]->gather_ms->ValueAtPercentile(99.0);
    registry
        ->GetGauge("router.tail.shard_p99_micros",
                   {{"shard", util::StringPrintf("s%d", s)}})
        ->Set(static_cast<int64_t>(p99_ms * 1000.0));
    out += util::StringPrintf("shard s%d gather p99=%.2fms\n", s, p99_ms);
    if (p99_ms > slowest_p99) {
      slowest_p99 = p99_ms;
      slowest = s;
    }
  }
  if (slowest >= 0) {
    out += util::StringPrintf("slowest shard: s%d (gather p99=%.2fms)\n",
                              slowest, slowest_p99);
  }
  return out;
}

std::string ShardRouter::ExportChromeTrace() {
  std::vector<obs::TraceRecord> all = trace_store_->Snapshot();
  std::vector<obs::TraceInstant> instants;
  auto add = [&](server::DrugTreeServer* server, const std::string& prefix) {
    for (auto& rec : server->trace_store()->Snapshot()) {
      rec.lane = prefix + "/" + rec.lane;
      all.push_back(std::move(rec));
    }
    if (server->alert_engine() != nullptr) {
      for (auto& inst : server->alert_engine()->TraceInstants()) {
        inst.lane = prefix + "/" + inst.lane;
        instants.push_back(std::move(inst));
      }
    }
  };
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) {
      add(replica->server.get(), replica->id);
    }
  }
  add(coordinator_.get(), "coord");
  return obs::ExportChromeTrace(all, instants);
}

void ShardRouter::TickTelemetry() {
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) {
      replica->server->TelemetryTick();
    }
  }
  coordinator_->TelemetryTick();
}

void ShardRouter::Drain() {
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) replica->server->Drain();
  }
  coordinator_->Drain();
}

}  // namespace shard
}  // namespace drugtree
