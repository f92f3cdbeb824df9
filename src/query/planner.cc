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

/// Matches `col op literal` (either side); returns the canonical form.
struct ColLiteral {
  std::string column;   // qualified
  BinaryOp op;
  Value literal;
};

bool MatchColLiteral(const Expr& e, ColLiteral* out) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.bin_op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral) {
    out->column = l.column;
    out->op = e.bin_op;
    out->literal = r.literal;
    return true;
  }
  if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral) {
    out->column = r.column;
    out->literal = l.literal;
    switch (e.bin_op) {
      case BinaryOp::kEq: out->op = BinaryOp::kEq; break;
      case BinaryOp::kLt: out->op = BinaryOp::kGt; break;
      case BinaryOp::kLe: out->op = BinaryOp::kGe; break;
      case BinaryOp::kGt: out->op = BinaryOp::kLt; break;
      case BinaryOp::kGe: out->op = BinaryOp::kLe; break;
      default: return false;
    }
    return true;
  }
  return false;
}

/// Strips the "alias." prefix.
std::string UnqualifiedName(const std::string& qualified) {
  size_t dot = qualified.find('.');
  return dot == std::string::npos ? qualified : qualified.substr(dot + 1);
}

/// A copy for a physical operator to bind (null stays null): logical
/// expressions are shared, so binding must never write into them. With
/// `params`, the copy carries the statement's literals.
ExprPtr CloneForBinding(const ExprPtr& expr, const ParamBindings* params) {
  return expr ? expr->Clone(params) : nullptr;
}

/// Splits an index nested-loop join's condition into the outer key probed
/// against `probe_column` (the qualified inner column), taken from the first
/// `outer_expr = probe_column` conjunct, and the remaining conjuncts (shared
/// with `condition`). The key is a copy bound to `params`, ready for
/// binding. Returns null when no conjunct has that shape.
ExprPtr SplitProbeKey(const ExprPtr& condition,
                      const std::string& probe_column,
                      const storage::Schema& outer,
                      const ParamBindings* params,
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
          key = other.Clone(params);
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
    pool_ = std::make_unique<util::ThreadPool>(workers);
    pool_workers_ = workers;
  }
  ParallelContext par;
  par.pool = pool_.get();
  par.parallelism = options.parallelism;
  return par;
}

// Every expression handed to an operator is a copy (CloneForBinding or
// Expr::Clone), bound to `params` when the plan was made for other
// literals: the logical plan may be a shared plan-cache template, and
// operators bind their expressions in place.
util::Result<PhysicalPtr> Planner::ToPhysical(const LogicalPtr& node,
                                              const PlannerOptions& options,
                                              ExecStats* stats,
                                              const ParamBindings* params) {
  EvalContext ctx{catalog_->tree(), catalog_->tree_index()};
  ParallelContext par = MakeParallelContext(options);
  switch (node->kind) {
    case LogicalKind::kScan: {
      DRUGTREE_ASSIGN_OR_RETURN(Table * table, catalog_->Lookup(node->table));
      // The scan's own copy: index selection reads its literals, and the
      // operator binds its pieces.
      ExprPtr predicate = CloneForBinding(node->scan_predicate, params);
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
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        ColLiteral cl;
        if (!MatchColLiteral(*conjuncts[i], &cl)) continue;
        std::string col = UnqualifiedName(cl.column);
        if (cl.op == BinaryOp::kEq && table->HasIndex(col)) {
          best_eq = static_cast<int>(i);
          break;  // equality is always the best choice
        }
        if (cl.op != BinaryOp::kEq && table->GetBTreeIndex(col) != nullptr &&
            best_range_col.empty()) {
          best_range_col = col;
        }
      }
      if (best_eq >= 0) {
        ColLiteral cl;
        MatchColLiteral(*conjuncts[static_cast<size_t>(best_eq)], &cl);
        IndexScanOp::Bounds bounds;
        bounds.is_point = true;
        bounds.equal = cl.literal;
        std::vector<ExprPtr> residual;
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (static_cast<int>(i) != best_eq) residual.push_back(conjuncts[i]);
        }
        return PhysicalPtr(std::make_unique<IndexScanOp>(
            table, node->alias, node->full_schema, node->columns,
            UnqualifiedName(cl.column), bounds, CombineConjuncts(residual),
            ctx, stats));
      }
      if (!best_range_col.empty()) {
        IndexScanOp::Bounds bounds;
        std::vector<ExprPtr> residual;
        for (auto& c : conjuncts) {
          ColLiteral cl;
          if (MatchColLiteral(*c, &cl) &&
              UnqualifiedName(cl.column) == best_range_col &&
              cl.op != BinaryOp::kEq) {
            switch (cl.op) {
              case BinaryOp::kLt:
              case BinaryOp::kLe:
                if (bounds.hi.is_null() || cl.literal.Compare(bounds.hi) < 0) {
                  bounds.hi = cl.literal;
                  bounds.hi_inclusive = cl.op == BinaryOp::kLe;
                }
                continue;
              case BinaryOp::kGt:
              case BinaryOp::kGe:
                if (bounds.lo.is_null() || cl.literal.Compare(bounds.lo) > 0) {
                  bounds.lo = cl.literal;
                  bounds.lo_inclusive = cl.op == BinaryOp::kGe;
                }
                continue;
              default:
                break;
            }
          }
          residual.push_back(c);
        }
        return PhysicalPtr(std::make_unique<IndexScanOp>(
            table, node->alias, node->full_schema, node->columns,
            best_range_col, bounds, CombineConjuncts(residual), ctx, stats));
      }
      return PhysicalPtr(std::make_unique<SeqScanOp>(
          table, node->alias, node->full_schema, node->columns,
          std::move(predicate), ctx, stats, par));
    }
    case LogicalKind::kFilter: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, params));
      return PhysicalPtr(std::make_unique<FilterOp>(
          std::move(child), node->predicate->Clone(params), ctx, stats));
    }
    case LogicalKind::kProject: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, params));
      std::vector<OutputColumn> outputs;
      for (const auto& o : node->outputs) {
        outputs.push_back({o.expr->Clone(params), o.name});
      }
      return PhysicalPtr(std::make_unique<ProjectOp>(
          std::move(child), std::move(outputs), node->schema, ctx));
    }
    case LogicalKind::kJoin: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr left,
          ToPhysical(node->children[0], options, stats, params));
      // The optimizer's cost choice, lowered only when index access paths
      // are enabled. The inner scan is not lowered: its table is probed
      // once per outer row, and its pushed-down predicate filters the
      // fetched rows.
      if (node->join_method == JoinMethod::kIndexNestedLoop &&
          options.enable_index_selection) {
        const LogicalNode& inner = *node->children[1];
        DRUGTREE_ASSIGN_OR_RETURN(Table * table, catalog_->Lookup(inner.table));
        std::vector<ExprPtr> residual;
        ExprPtr key = SplitProbeKey(node->join_condition,
                                    inner.alias + "." + node->index_column,
                                    node->children[0]->schema, params,
                                    &residual);
        if (key != nullptr &&
            table->GetHashIndex(node->index_column) != nullptr) {
          return PhysicalPtr(std::make_unique<IndexNestedLoopJoinOp>(
              std::move(left), table, inner.alias, inner.full_schema,
              inner.columns, node->schema, node->index_column, std::move(key),
              CloneForBinding(inner.scan_predicate, params),
              CloneForBinding(CombineConjuncts(residual), params), ctx,
              stats));
        }
      }
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr right,
          ToPhysical(node->children[1], options, stats, params));
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
              key_pairs.emplace_back(a->Clone(params), b->Clone(params));
              matched = true;
            } else if (RefersOnly(*b, ls) && RefersOnly(*a, rs)) {
              key_pairs.emplace_back(b->Clone(params), a->Clone(params));
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
            CloneForBinding(CombineConjuncts(residual), params), ctx, stats,
            par));
      }
      return PhysicalPtr(std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right), node->schema,
          CloneForBinding(CombineConjuncts(residual), params), ctx, stats));
    }
    case LogicalKind::kAggregate: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, params));
      std::vector<ExprPtr> groups;
      for (const auto& g : node->group_by) groups.push_back(g->Clone(params));
      std::vector<OutputColumn> aggs;
      for (const auto& a : node->outputs) {
        aggs.push_back({a.expr->Clone(params), a.name});
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
              ToPhysical(node->children[0], options, stats, params));
          return PhysicalPtr(
              std::make_unique<LimitOp>(std::move(child), node->limit));
        }
        sort = node->children[0].get();
        cap = node->limit;
      }
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(sort->children[0], options, stats, params));
      std::vector<OrderKey> keys;
      for (const auto& k : sort->order_by) {
        keys.push_back({k.expr->Clone(params), k.ascending});
      }
      return PhysicalPtr(std::make_unique<SortOp>(std::move(child),
                                                  std::move(keys), ctx, cap));
    }
    case LogicalKind::kDistinct: {
      DRUGTREE_ASSIGN_OR_RETURN(
          PhysicalPtr child,
          ToPhysical(node->children[0], options, stats, params));
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
  // Optimization prices plans with the calibrator's current coefficient
  // snapshot (defaults when no calibrator is attached). The snapshot's
  // version is part of the plan-cache signature, so a recalibration
  // invalidates plans priced under the old coefficients.
  obs::CalibratedCosts costs;
  OptimizerOptions optimizer = options.optimizer;
  if (calibrator_ != nullptr) {
    costs = calibrator_->snapshot();
    optimizer.costs = &costs;
  }
  QueryOutcome outcome;
  PlanCache::Key key;
  // A cached template re-resolves this statement's tree nodes; a
  // multi-table statement's variant is chosen by its scans' cardinality
  // classes under those bindings.
  const PlanCache::Binder bind = [this, &lexed](const LogicalNode& plan) {
    return BindParams(plan, lexed.params, *catalog_);
  };
  const PlanCache::Classifier classify =
      [this, &optimizer](const LogicalNode& plan,
                         const ParamBindings& bindings) {
        return CardinalityClasses(plan, bindings, *catalog_, optimizer.costs);
      };
  LogicalPtr optimized;
  // Set when `optimized` was planned for other literals: this statement's.
  std::optional<ParamBindings> params;
  if (plan_cache_ != nullptr) {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.plan.cache");
    key = {std::move(lexed.fingerprint), PlanCache::RuleFlags(optimizer)};
    DRUGTREE_ASSIGN_OR_RETURN(
        PlanCache::Lookup lookup,
        plan_cache_->Get(key, *catalog_, costs.version, lexed.params, bind,
                         classify));
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
      versions = PlanCache::CaptureVersions(*catalog_, stmt, costs.version);
    }
    DRUGTREE_ASSIGN_OR_RETURN(optimized, [&] {
      obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
      DT_SPAN("query.optimize");
      util::Result<LogicalPtr> logical = BuildLogicalPlan(stmt, *catalog_);
      if (!logical.ok()) return logical;
      return OptimizeLogicalPlan(*logical, *catalog_, optimizer);
    }());
    if (plan_cache_ != nullptr) {
      plan_cache_->Install(key, optimized, lexed.params, std::move(versions),
                           bind, classify);
    }
  }
  const ParamBindings* bindings = params ? &*params : nullptr;
  DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr physical, [&] {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.plan.physical");
    return ToPhysical(optimized, options, &outcome.stats, bindings);
  }());
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
  if (analyze) {
    physical->EnableAnalyze(obs::Tracer::Default()->clock());
  }
  {
    obs::TracePhaseScope execute_phase(obs::TracePhase::kExecute);
    DRUGTREE_ASSIGN_OR_RETURN(outcome.result,
                              ExecutePlan(physical.get(), context));
  }
  if (analyze) {
    obs::ExplainNode analyzed = physical->AnalyzeTree();
    outcome.analyzed_plan = obs::RenderExplainTree(analyzed);
    if (trace != nullptr) trace->set_analyzed_plan(outcome.analyzed_plan);
    // Close the loop: fold the observed per-operator timings back into the
    // cost coefficients future optimizations will price plans with.
    if (calibrator_ != nullptr) calibrator_->Observe(analyzed);
  }
  if (use_cache) {
    result_cache_->Put(cache_key, outcome.result);
  }
  return outcome;
}

}  // namespace query
}  // namespace drugtree
