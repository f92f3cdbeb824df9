#include "query/planner.h"

#include <algorithm>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Table;
using storage::Value;
using storage::ValueType;

namespace {

/// True iff every column the expression references resolves in `schema`.
bool RefersOnly(const Expr& e, const storage::Schema& schema) {
  std::vector<std::string> cols;
  e.CollectColumns(&cols);
  for (const auto& c : cols) {
    if (!ResolveColumn(schema, c).ok()) return false;
  }
  return true;
}

/// Strips the "alias." prefix.
std::string UnqualifiedName(const std::string& qualified) {
  size_t dot = qualified.find('.');
  return dot == std::string::npos ? qualified : qualified.substr(dot + 1);
}

/// A copy for a physical operator to bind (null stays null): logical
/// expressions are shared, so binding must never write into them. With
/// `slots`, the copy's tagged literals are recorded there.
ExprPtr CloneForBinding(const ExprPtr& expr, std::vector<LiteralSlot>* slots) {
  return expr ? expr->Clone(nullptr, slots) : nullptr;
}

/// Splits an index nested-loop join's condition into the outer key probed
/// against `probe_column` (the qualified inner column), taken from the first
/// `outer_expr = probe_column` conjunct, and the remaining conjuncts (shared
/// with `condition`). The key is a copy (its tagged literals recorded in
/// `slots`), ready for binding. Returns null when no conjunct has that
/// shape.
ExprPtr SplitProbeKey(const ExprPtr& condition,
                      const std::string& probe_column,
                      const storage::Schema& outer,
                      std::vector<LiteralSlot>* slots,
                      std::vector<ExprPtr>* residual) {
  ExprPtr key;
  for (auto& c : SplitConjuncts(condition)) {
    if (key == nullptr && c->kind == ExprKind::kBinary &&
        c->bin_op == BinaryOp::kEq) {
      for (size_t side = 0; side < 2; ++side) {
        const Expr& col = *c->children[side];
        const Expr& other = *c->children[1 - side];
        if (col.kind == ExprKind::kColumnRef && col.column == probe_column &&
            RefersOnly(other, outer)) {
          key = other.Clone(nullptr, slots);
          break;
        }
      }
      if (key != nullptr) continue;
    }
    residual->push_back(std::move(c));
  }
  return key;
}

}  // namespace

ParallelContext Planner::MakeParallelContext(const PlannerOptions& options) {
  if (options.parallelism <= 1) return {};
  // The ParallelFor caller participates in the work loop, so a pool of
  // parallelism - 1 threads yields `parallelism` workers in total.
  int workers = options.parallelism - 1;
  if (pool_ == nullptr || pool_workers_ != workers) {
    // Plans lowered against the old pool would run on a destroyed one.
    std::erase_if(prepared_, [](const auto& entry) {
      return entry.first.parallelism > 1;
    });
    pool_ = std::make_unique<util::ThreadPool>(workers);
    pool_workers_ = workers;
  }
  ParallelContext par;
  par.pool = pool_.get();
  par.parallelism = options.parallelism;
  return par;
}

// Every expression handed to an operator is a copy (CloneForBinding): the
// logical plan may be a shared plan-cache template, and operators bind
// their expressions in place. The copies keep the template's literals;
// every tagged one an operator keeps is recorded in `slots`, where Prepare
// assigns the statement's values, and no copy is made and then dropped.
util::Result<PhysicalPtr> Planner::ToPhysical(const LogicalPtr& node,
                                              const PlannerOptions& options,
                                              ExecStats* stats,
                                              std::vector<LiteralSlot>* slots) {
  EvalContext ctx{catalog_->tree(), catalog_->tree_index()};
  ParallelContext par = MakeParallelContext(options);
  switch (node->kind) {
    case LogicalKind::kScan: {
      DRUGTREE_ASSIGN_OR_RETURN(Table * table, catalog_->Lookup(node->table));
      // The scan's own copy: index selection splits it, and the operator
      // binds its pieces.
      ExprPtr predicate = CloneForBinding(node->scan_predicate, slots);
      if (!options.enable_index_selection || !predicate) {
        return PhysicalPtr(std::make_unique<SeqScanOp>(
            table, node->alias, node->full_schema, node->columns,
            std::move(predicate), ctx, stats, par));
      }
      // Index selection: find the best access path among the conjuncts.
      auto conjuncts = SplitConjuncts(predicate);
      // Candidate 1: equality on an indexed column.
      int best_eq = -1;
      // Candidate 2: range bounds on an indexed (B+-tree) column; collect
      // all range conjuncts for the same column.
      std::string best_range_col;
      std::string best_eq_col;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        ColumnComparison cmp;
        if (!MatchColumnComparison(*conjuncts[i], &cmp)) continue;
        std::string col = UnqualifiedName(cmp.column->column);
        if (cmp.op == BinaryOp::kEq && table->HasIndex(col)) {
          best_eq = static_cast<int>(i);
          best_eq_col = std::move(col);
          break;  // equality is always the best choice
        }
        if (cmp.op != BinaryOp::kEq && table->GetBTreeIndex(col) != nullptr &&
            best_range_col.empty()) {
          best_range_col = col;
        }
      }
      // The index scan reads its bounds from the conjuncts it answers; the
      // others stay its residual.
      if (best_eq >= 0) {
        std::vector<ExprPtr> residual;
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (static_cast<int>(i) != best_eq) residual.push_back(conjuncts[i]);
        }
        return PhysicalPtr(std::make_unique<IndexScanOp>(
            table, node->alias, node->full_schema, node->columns,
            std::move(best_eq_col),
            std::vector<ExprPtr>{conjuncts[static_cast<size_t>(best_eq)]},
            /*point=*/true, CombineConjuncts(residual), ctx, stats));
      }
      if (!best_range_col.empty()) {
        std::vector<ExprPtr> bounds;
        std::vector<ExprPtr> residual;
        for (auto& c : conjuncts) {
          ColumnComparison cmp;
          const bool bound = MatchColumnComparison(*c, &cmp) &&
                             cmp.op != BinaryOp::kEq &&
                             UnqualifiedName(cmp.column->column) ==
                                 best_range_col;
          (bound ? bounds : residual).push_back(c);
        }
        return PhysicalPtr(std::make_unique<IndexScanOp>(
            table, node->alias, node->full_schema, node->columns,
            best_range_col, std::move(bounds), /*point=*/false,
            CombineConjuncts(residual), ctx, stats));
      }
      return PhysicalPtr(std::make_unique<SeqScanOp>(
          table, node->alias, node->full_schema, node->columns,
          std::move(predicate), ctx, stats, par));
    }
    case LogicalKind::kFilter: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, slots));
      return PhysicalPtr(std::make_unique<FilterOp>(
          std::move(child), CloneForBinding(node->predicate, slots), ctx,
          stats));
    }
    case LogicalKind::kProject: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, slots));
      std::vector<OutputColumn> outputs;
      for (const auto& o : node->outputs) {
        outputs.push_back({CloneForBinding(o.expr, slots), o.name});
      }
      return PhysicalPtr(std::make_unique<ProjectOp>(
          std::move(child), std::move(outputs), node->schema, ctx));
    }
    case LogicalKind::kJoin: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr left,
          ToPhysical(node->children[0], options, stats, slots));
      // The optimizer's cost choice, lowered only when index access paths
      // are enabled. The inner scan is not lowered: its table is probed
      // once per outer row, and its pushed-down predicate filters the
      // fetched rows.
      if (node->join_method == JoinMethod::kIndexNestedLoop &&
          options.enable_index_selection) {
        const LogicalNode& inner = *node->children[1];
        DRUGTREE_ASSIGN_OR_RETURN(Table * table, catalog_->Lookup(inner.table));
        // The key is copied only when the join is lowered.
        std::vector<ExprPtr> residual;
        ExprPtr key = table->GetHashIndex(node->index_column) == nullptr
                          ? nullptr
                          : SplitProbeKey(node->join_condition,
                                          inner.alias + "." +
                                              node->index_column,
                                          node->children[0]->schema, slots,
                                          &residual);
        if (key != nullptr) {
          return PhysicalPtr(std::make_unique<IndexNestedLoopJoinOp>(
              std::move(left), table, inner.alias, inner.full_schema,
              inner.columns, node->schema, node->index_column, std::move(key),
              CloneForBinding(inner.scan_predicate, slots),
              CloneForBinding(CombineConjuncts(residual), slots), ctx,
              stats));
        }
      }
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr right,
          ToPhysical(node->children[1], options, stats, slots));
      // Split the condition into equi pairs and residual.
      std::vector<std::pair<ExprPtr, ExprPtr>> key_pairs;
      std::vector<ExprPtr> residual;
      if (node->join_condition && options.enable_hash_join) {
        const storage::Schema& ls = node->children[0]->schema;
        const storage::Schema& rs = node->children[1]->schema;
        for (auto& c : SplitConjuncts(node->join_condition)) {
          bool matched = false;
          if (c->kind == ExprKind::kBinary && c->bin_op == BinaryOp::kEq) {
            ExprPtr a = c->children[0];
            ExprPtr b = c->children[1];
            if (RefersOnly(*a, ls) && RefersOnly(*b, rs)) {
              key_pairs.emplace_back(CloneForBinding(a, slots),
                                     CloneForBinding(b, slots));
              matched = true;
            } else if (RefersOnly(*b, ls) && RefersOnly(*a, rs)) {
              key_pairs.emplace_back(CloneForBinding(b, slots),
                                     CloneForBinding(a, slots));
              matched = true;
            }
          }
          if (!matched) residual.push_back(c);
        }
      } else if (node->join_condition) {
        residual.push_back(node->join_condition);
      }
      if (!key_pairs.empty()) {
        return PhysicalPtr(std::make_unique<HashJoinOp>(
            std::move(left), std::move(right), node->schema,
            std::move(key_pairs),
            CloneForBinding(CombineConjuncts(residual), slots), ctx,
            stats, par));
      }
      return PhysicalPtr(std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right), node->schema,
          CloneForBinding(CombineConjuncts(residual), slots), ctx,
          stats));
    }
    case LogicalKind::kAggregate: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, slots));
      std::vector<ExprPtr> groups;
      for (const auto& g : node->group_by) {
        groups.push_back(CloneForBinding(g, slots));
      }
      std::vector<OutputColumn> aggs;
      for (const auto& a : node->outputs) {
        aggs.push_back({CloneForBinding(a.expr, slots), a.name});
      }
      return PhysicalPtr(std::make_unique<HashAggregateOp>(
          std::move(child), std::move(groups), std::move(aggs), node->schema,
          ctx));
    }
    case LogicalKind::kSort:
    case LogicalKind::kLimit: {
      // A Limit directly over a Sort lowers to one SortOp that keeps only
      // the first `limit` rows (Top-N); any other Limit streams through
      // LimitOp.
      const LogicalNode* sort = node.get();
      int64_t cap = -1;
      if (node->kind == LogicalKind::kLimit) {
        if (node->children[0]->kind != LogicalKind::kSort) {
          DRUGTREE_ASSIGN_OR_RETURN(
              PhysicalPtr child,
              ToPhysical(node->children[0], options, stats, slots));
          return PhysicalPtr(
              std::make_unique<LimitOp>(std::move(child), node->limit));
        }
        sort = node->children[0].get();
        cap = node->limit;
      }
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(sort->children[0], options, stats, slots));
      std::vector<OrderKey> keys;
      for (const auto& k : sort->order_by) {
        keys.push_back({CloneForBinding(k.expr, slots), k.ascending});
      }
      return PhysicalPtr(std::make_unique<SortOp>(std::move(child),
                                                  std::move(keys), ctx, cap));
    }
    case LogicalKind::kDistinct: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, slots));
      return PhysicalPtr(std::make_unique<DistinctOp>(std::move(child)));
    }
  }
  return util::Status::Internal("unknown logical node kind");
}

util::Result<PhysicalPtr> Planner::Plan(const std::string& sql,
                                        const PlannerOptions& options,
                                        ExecStats* stats) {
  DRUGTREE_ASSIGN_OR_RETURN(SelectStatement stmt, ParseQuery(sql));
  DRUGTREE_ASSIGN_OR_RETURN(LogicalPtr logical,
                            BuildLogicalPlan(stmt, *catalog_));
  DRUGTREE_ASSIGN_OR_RETURN(
      LogicalPtr optimized,
      OptimizeLogicalPlan(logical, *catalog_, options.optimizer));
  return ToPhysical(optimized, options, stats);
}

util::Result<Planner::PreparedPlan*> Planner::Prepare(
    const LogicalPtr& plan, const PlannerOptions& options,
    const ParamBindings* params) {
  const PreparedKey key{plan.get(), options.enable_index_selection,
                        options.enable_hash_join,
                        std::max(1, options.parallelism)};
  auto it = prepared_.find(key);
  // A live template at this address is the plan's own: the weak reference
  // expires before the address can be reused.
  if (it == prepared_.end() || it->second.source.expired()) {
    DT_SPAN("query.plan.physical");
    std::erase_if(prepared_, [](const auto& entry) {
      return entry.second.source.expired();
    });
    // Settle the pool first: replacing it drops the plans that ran on it.
    (void)MakeParallelContext(options);
    // Lowered in place: the operators count into the entry's own stats.
    it = prepared_.try_emplace(key).first;
    it->second.source = plan;
    util::Result<PhysicalPtr> root =
        ToPhysical(plan, options, &it->second.stats, &it->second.slots);
    if (!root.ok()) {
      prepared_.erase(it);
      return root.status();
    }
    it->second.root = std::move(root).ValueUnsafe();
  }
  // A kept plan may hold another statement's literals: assign this one's,
  // or the template's own on a verbatim hit.
  storage::Value scratch;
  for (LiteralSlot& slot : it->second.slots) {
    slot.copy->literal = params == nullptr
                             ? slot.own
                             : params->ValueFor(*slot.copy, &scratch);
  }
  return &it->second;
}

util::Result<QueryOutcome> Planner::Run(const std::string& sql,
                                        const PlannerOptions& options,
                                        const QueryContext* context) {
  if (context != nullptr) {
    DRUGTREE_RETURN_IF_ERROR(context->Check());
  }
  obs::TraceContext* trace = obs::TraceContext::Current();
  // One pass yields the tokens, the plan-cache fingerprint and the literal
  // values; a plan-cache hit needs nothing else from the text.
  DRUGTREE_ASSIGN_OR_RETURN(LexedStatement lexed, [&] {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.lex");
    return Lex(sql);
  }());
  // EXPLAIN [ANALYZE] always runs the full pipeline: a cached result would
  // have no plan to show.
  std::string cache_key;
  const bool use_cache = options.use_result_cache &&
                         result_cache_ != nullptr &&
                         lexed.explain == ExplainMode::kNone;
  if (use_cache) {
    cache_key = ResultCache::MakeKey(lexed.Canonical(), catalog_->epoch());
    if (auto cached = result_cache_->Get(cache_key)) {
      if (trace != nullptr) trace->BumpCounter("result_cache_hit");
      QueryOutcome outcome;
      outcome.result = std::move(*cached);
      outcome.from_result_cache = true;
      return outcome;
    }
    if (trace != nullptr) trace->BumpCounter("result_cache_miss");
  }
  QueryOutcome outcome;
  PlanCache::Key key;
  LogicalPtr optimized;
  // Set when `optimized` was planned for other literals: this statement's.
  std::optional<ParamBindings> params;
  if (plan_cache_ != nullptr) {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.plan.cache");
    key = {std::move(lexed.fingerprint),
           PlanCache::RuleFlags(options.optimizer)};
    DRUGTREE_ASSIGN_OR_RETURN(PlanCache::Lookup lookup,
                              plan_cache_->Get(key, *catalog_, lexed.params));
    if (lookup.plan != nullptr) {
      optimized = std::move(lookup.plan);
      params = std::move(lookup.bindings);
      outcome.from_plan_cache = true;
    }
    if (trace != nullptr) {
      trace->BumpCounter(outcome.from_plan_cache ? "plan_cache_hit"
                                                 : "plan_cache_miss");
    }
  }
  if (optimized == nullptr) {
    // A miss: parse the tokens, whose literals carry their ordinals.
    DRUGTREE_ASSIGN_OR_RETURN(SelectStatement stmt, [&] {
      obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
      DT_SPAN("query.parse");
      return ParseTokens(lexed.tokens);
    }());
    PlanCache::VersionSignature versions;
    if (plan_cache_ != nullptr) {
      versions = PlanCache::CaptureVersions(*catalog_, stmt);
    }
    DRUGTREE_ASSIGN_OR_RETURN(optimized, [&] {
      obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
      DT_SPAN("query.optimize");
      util::Result<LogicalPtr> logical = BuildLogicalPlan(stmt, *catalog_);
      if (!logical.ok()) return logical;
      return OptimizeLogicalPlan(*logical, *catalog_, options.optimizer);
    }());
    if (plan_cache_ != nullptr) {
      plan_cache_->Install(key, optimized, lexed.params, std::move(versions),
                           *catalog_);
    }
  }
  const ParamBindings* bindings = params ? &*params : nullptr;
  // With a plan cache, the run re-binds and runs the planner's prepared
  // plan of the template; without one, it lowers a plan of its own.
  PhysicalPtr lowered;
  PreparedPlan* prepared = nullptr;
  {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    if (plan_cache_ != nullptr) {
      DRUGTREE_ASSIGN_OR_RETURN(prepared,
                                Prepare(optimized, options, bindings));
    } else {
      DT_SPAN("query.plan.physical");
      DRUGTREE_ASSIGN_OR_RETURN(lowered,
                                ToPhysical(optimized, options, &outcome.stats));
    }
  }
  PhysicalOperator* physical =
      prepared != nullptr ? prepared->root.get() : lowered.get();
  // Every way out of the run ends it: a prepared plan keeps no rows, no
  // memory charges and no context for its next run.
  struct EndRun {
    PhysicalOperator* plan;
    ~EndRun() { plan->Release(); }
  } end_run{physical};
  // Plan texts are rendered for EXPLAIN [ANALYZE] only; other statements
  // leave them empty.
  if (lexed.explain != ExplainMode::kNone) {
    outcome.logical_plan = optimized->ToString(0, bindings);
    outcome.physical_plan = physical->ExplainString();
    if (outcome.from_plan_cache) {
      // Mirror the shard router's "route: ..." convention so EXPLAIN shows
      // when the optimizer was skipped.
      outcome.physical_plan = "plan: cached\n" + outcome.physical_plan;
    }
  }
  if (lexed.explain == ExplainMode::kPlan) {
    // Plan-only: the plan texts are the result.
    return outcome;
  }
  // Per-operator analyze instrumentation: explicit EXPLAIN ANALYZE, or
  // opted in by the serving layer so slow-query forensics has the plan of
  // an offender without re-running it.
  const bool analyze =
      lexed.explain == ExplainMode::kAnalyze ||
      (context != nullptr && context->collect_analyze);
  // Set on every run: a prepared plan may have run analyzed before.
  physical->EnableAnalyze(analyze ? obs::Tracer::Default()->clock()
                                  : nullptr);
  if (prepared != nullptr) prepared->stats = ExecStats();
  {
    obs::TracePhaseScope execute_phase(obs::TracePhase::kExecute);
    DRUGTREE_ASSIGN_OR_RETURN(outcome.result,
                              ExecutePlan(physical, context));
  }
  if (prepared != nullptr) outcome.stats = prepared->stats;
  if (analyze) {
    outcome.analyzed_plan = obs::RenderExplainTree(physical->AnalyzeTree());
    if (trace != nullptr) trace->set_analyzed_plan(outcome.analyzed_plan);
  }
  if (use_cache) {
    result_cache_->Put(cache_key, outcome.result);
  }
  return outcome;
}

}  // namespace query
}  // namespace drugtree
