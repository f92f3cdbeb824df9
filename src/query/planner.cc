#include "query/planner.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "query/normalize.h"
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

/// Splits an index nested-loop join's condition into the outer key probed
/// against `probe_column` (the qualified inner column), taken from the first
/// `outer_expr = probe_column` conjunct, and the remaining conjuncts.
/// Returns null when no conjunct has that shape.
ExprPtr SplitProbeKey(const ExprPtr& condition,
                      const std::string& probe_column,
                      const storage::Schema& outer,
                      std::vector<ExprPtr>* residual) {
  ExprPtr key;
  for (auto& c : SplitConjuncts(condition)) {
    if (key == nullptr && c->kind == ExprKind::kBinary &&
        c->bin_op == BinaryOp::kEq) {
      for (size_t side = 0; side < 2; ++side) {
        const Expr& col = *c->children[side];
        const ExprPtr& other = c->children[1 - side];
        if (col.kind == ExprKind::kColumnRef && col.column == probe_column &&
            RefersOnly(*other, outer)) {
          key = other;
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

util::Result<PhysicalPtr> Planner::ToPhysical(const LogicalPtr& node,
                                              const PlannerOptions& options,
                                              ExecStats* stats) {
  EvalContext ctx{catalog_->tree(), catalog_->tree_index()};
  ParallelContext par = MakeParallelContext(options);
  switch (node->kind) {
    case LogicalKind::kScan: {
      DRUGTREE_ASSIGN_OR_RETURN(Table * table, catalog_->Lookup(node->table));
      if (!options.enable_index_selection || !node->scan_predicate) {
        return PhysicalPtr(std::make_unique<SeqScanOp>(
            table, node->alias,
            node->scan_predicate ? node->scan_predicate->Clone() : nullptr,
            ctx, stats, par));
      }
      // Index selection: find the best access path among the conjuncts.
      auto conjuncts = SplitConjuncts(node->scan_predicate);
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
            table, node->alias, UnqualifiedName(cl.column), bounds,
            CombineConjuncts(residual), ctx, stats));
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
            table, node->alias, best_range_col, bounds,
            CombineConjuncts(residual), ctx, stats));
      }
      return PhysicalPtr(std::make_unique<SeqScanOp>(
          table, node->alias, node->scan_predicate->Clone(), ctx, stats, par));
    }
    case LogicalKind::kFilter: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
      return PhysicalPtr(std::make_unique<FilterOp>(
          std::move(child), node->predicate->Clone(), ctx, stats));
    }
    case LogicalKind::kProject: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
      std::vector<OutputColumn> outputs;
      for (const auto& o : node->outputs) {
        outputs.push_back({o.expr->Clone(), o.name});
      }
      return PhysicalPtr(std::make_unique<ProjectOp>(std::move(child),
                                                     std::move(outputs), ctx));
    }
    case LogicalKind::kJoin: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr left,
                                ToPhysical(node->children[0], options, stats));
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
                                    node->children[0]->schema, &residual);
        if (key != nullptr &&
            table->GetHashIndex(node->index_column) != nullptr) {
          return PhysicalPtr(std::make_unique<IndexNestedLoopJoinOp>(
              std::move(left), table, inner.alias, node->index_column,
              std::move(key),
              inner.scan_predicate ? inner.scan_predicate->Clone() : nullptr,
              CombineConjuncts(residual), ctx, stats));
        }
      }
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr right,
                                ToPhysical(node->children[1], options, stats));
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
              key_pairs.emplace_back(a->Clone(), b->Clone());
              matched = true;
            } else if (RefersOnly(*b, ls) && RefersOnly(*a, rs)) {
              key_pairs.emplace_back(b->Clone(), a->Clone());
              matched = true;
            }
          }
          if (!matched) residual.push_back(c);
        }
      } else if (node->join_condition) {
        residual.push_back(node->join_condition->Clone());
      }
      if (!key_pairs.empty()) {
        return PhysicalPtr(std::make_unique<HashJoinOp>(
            std::move(left), std::move(right), std::move(key_pairs),
            CombineConjuncts(residual), ctx, stats, par));
      }
      return PhysicalPtr(std::make_unique<NestedLoopJoinOp>(
          std::move(left), std::move(right), CombineConjuncts(residual), ctx,
          stats));
    }
    case LogicalKind::kAggregate: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
      std::vector<ExprPtr> groups;
      for (const auto& g : node->group_by) groups.push_back(g->Clone());
      std::vector<OutputColumn> aggs;
      for (const auto& a : node->outputs) {
        aggs.push_back({a.expr->Clone(), a.name});
      }
      return PhysicalPtr(std::make_unique<HashAggregateOp>(
          std::move(child), std::move(groups), std::move(aggs), node->schema,
          ctx));
    }
    case LogicalKind::kSort: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
      std::vector<OrderKey> keys;
      for (const auto& k : node->order_by) {
        keys.push_back({k.expr->Clone(), k.ascending});
      }
      return PhysicalPtr(
          std::make_unique<SortOp>(std::move(child), std::move(keys), ctx));
    }
    case LogicalKind::kLimit: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
      return PhysicalPtr(std::make_unique<LimitOp>(std::move(child),
                                                   node->limit));
    }
    case LogicalKind::kDistinct: {
      DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr child,
                                ToPhysical(node->children[0], options, stats));
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
  DRUGTREE_ASSIGN_OR_RETURN(Statement stmt, [&] {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.parse");
    return ParseStatement(sql);
  }());
  // EXPLAIN [ANALYZE] always runs the full pipeline: a cached result would
  // have no plan to show.
  std::string cache_key;
  const bool use_cache = options.use_result_cache &&
                         result_cache_ != nullptr &&
                         stmt.explain == ExplainMode::kNone;
  // Literal normalization: tags every literal in the statement with its
  // positional ordinal (in place), and yields the canonical text (result
  // cache key — skipped when unused, it is pure rendering cost on the
  // plan-cache hit path) plus the structural fingerprint (plan cache key).
  // Both keys derive from one traversal, so equivalent statements agree by
  // construction.
  NormalizedStatement norm = [&] {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    return NormalizeStatement(&stmt.select, /*want_canonical=*/use_cache);
  }();
  if (use_cache) {
    cache_key = ResultCache::MakeKey(norm.canonical, catalog_->epoch());
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
  PlanCache::VersionSignature versions;
  LogicalPtr optimized;
  if (plan_cache_ != nullptr) {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.plan.cache");
    versions = PlanCache::CaptureVersions(*catalog_, stmt.select,
                                          costs.version);
    PlanCache::Lookup lookup =
        plan_cache_->Get(norm.fingerprint, versions, norm.params);
    if (lookup.plan != nullptr) {
      optimized = std::move(lookup.plan);
      outcome.from_plan_cache = true;
    }
    if (trace != nullptr) {
      trace->BumpCounter(outcome.from_plan_cache ? "plan_cache_hit"
                                                 : "plan_cache_miss");
    }
  }
  if (optimized == nullptr) {
    DRUGTREE_ASSIGN_OR_RETURN(optimized, [&] {
      obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
      DT_SPAN("query.optimize");
      util::Result<LogicalPtr> logical =
          BuildLogicalPlan(stmt.select, *catalog_);
      if (!logical.ok()) return logical;
      return OptimizeLogicalPlan(*logical, *catalog_, optimizer);
    }());
    if (plan_cache_ != nullptr) {
      plan_cache_->Install(norm.fingerprint, optimized, norm.params, versions);
    }
  }
  DRUGTREE_ASSIGN_OR_RETURN(PhysicalPtr physical, [&] {
    obs::TracePhaseScope plan_phase(obs::TracePhase::kPlan);
    DT_SPAN("query.plan.physical");
    return ToPhysical(optimized, options, &outcome.stats);
  }());
  // Plan texts are rendered for EXPLAIN [ANALYZE] only; other statements
  // leave them empty.
  if (stmt.explain != ExplainMode::kNone) {
    outcome.logical_plan = optimized->ToString();
    outcome.physical_plan = physical->ExplainString();
    if (outcome.from_plan_cache) {
      // Mirror the shard router's "route: ..." convention so EXPLAIN shows
      // when the optimizer was skipped.
      outcome.physical_plan = "plan: cached\n" + outcome.physical_plan;
    }
  }
  if (stmt.explain == ExplainMode::kPlan) {
    // Plan-only: the plan texts are the result.
    return outcome;
  }
  // Per-operator analyze instrumentation: explicit EXPLAIN ANALYZE, or
  // opted in by the serving layer so slow-query forensics has the plan of
  // an offender without re-running it.
  const bool analyze =
      stmt.explain == ExplainMode::kAnalyze ||
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
