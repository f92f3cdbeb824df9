// Planner: the query engine's front door. Lexes, optimizes (or reuses a
// cached plan), physically plans, and executes statements, with every
// optimization independently toggleable (the E1/E2 ablation axes) and an
// optional semantic result cache in front of the whole pipeline. Physical
// planning lowers each logical scan's column list (projection pruning,
// rules.h) into the scan and index-join operators, which copy only the
// listed columns.
//
// Prepared plans: a planner with a plan cache keeps the physical plan it
// lowers from each template, keyed by the template's identity and the
// lowering inputs a template does not carry (index selection, hash joins,
// parallelism), and re-runs it on the template's later hits. Lowering
// copies the template's literals into the operators and records every
// tagged copy (LiteralSlot); each run, the first included, assigns each its
// value under the statement's bindings, or the template's own value on a
// verbatim hit. A hit then runs the plan: no lowering, no expression copy,
// and column references stay bound. Each run sets its
// own state (context, analyze clock, operator and ExecStats counters) and
// ends with PhysicalOperator::Release(), so a kept plan holds no rows and
// no memory-tracker pointer between runs. The template is held weakly: a
// plan dies with its template and is pruned at the next lowering; plans
// lowered against a worker pool that a parallelism change replaces are
// dropped with it. A planner serves one thread at a time (the server has
// one per slot), so its plans need no lock.

#ifndef DRUGTREE_QUERY_PLANNER_H_
#define DRUGTREE_QUERY_PLANNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/catalog.h"
#include "query/executor.h"
#include "query/logical_plan.h"
#include "query/plan_cache.h"
#include "query/query_context.h"
#include "query/result_cache.h"
#include "query/rules.h"
#include "util/result.h"

namespace drugtree {
namespace query {

struct PlannerOptions {
  OptimizerOptions optimizer;
  /// Pick index access paths for pushed-down scan predicates, and lower
  /// joins the optimizer priced as index nested-loop joins to them (hash
  /// or nested-loop joins otherwise).
  bool enable_index_selection = true;
  /// Prefer hash joins for equi-conditions (nested loops otherwise).
  bool enable_hash_join = true;
  /// Serve/install results in the semantic result cache.
  bool use_result_cache = false;
  /// Morsel-parallel worker count for CPU-heavy operators (seq-scan
  /// filtering, hash-join build). 1 = serial execution; results are
  /// identical at any setting.
  int parallelism = 1;
  /// Selects nothing: the batch size of the removed vectorized engine,
  /// still declared only because the perfbench harness assigns it. No code
  /// reads it; drop it once perfbench no longer does.
  size_t batch_size = 1024;

  /// Everything off: the E1/E2 "naive DrugTree" baseline, and the
  /// unpruned reference every optimization is checked against.
  static PlannerOptions Naive() {
    PlannerOptions o;
    o.optimizer = OptimizerOptions::AllOff();
    o.enable_index_selection = false;
    o.enable_hash_join = false;
    o.use_result_cache = false;
    return o;
  }
  /// Everything on (result cache still opt-in).
  static PlannerOptions Optimized() { return PlannerOptions(); }
};

/// The outcome of running one statement, including plan introspection.
struct QueryOutcome {
  QueryResult result;
  /// Optimized logical and physical plan texts; rendered only for EXPLAIN
  /// and EXPLAIN ANALYZE (empty otherwise).
  std::string logical_plan;
  std::string physical_plan;
  /// For EXPLAIN ANALYZE: the executed plan annotated with per-operator
  /// rows_out / Next() calls / cumulative time. Empty otherwise.
  std::string analyzed_plan;
  ExecStats stats;
  bool from_result_cache = false;
  /// True when the logical plan came from the plan cache (reused verbatim
  /// or re-bound to this statement's literals) instead of the optimizer.
  bool from_plan_cache = false;
};

class Planner {
 public:
  /// `catalog` is borrowed; the caches may be null (and are shared across
  /// planners when the serving layer passes the same instances to every
  /// slot). With a `plan_cache`, optimized logical plans are cached as
  /// parameterized templates keyed by the statement's structural
  /// fingerprint, and this planner keeps a prepared physical plan per
  /// template it runs.
  explicit Planner(Catalog* catalog, ResultCache* result_cache = nullptr,
                   PlanCache* plan_cache = nullptr)
      : catalog_(catalog),
        result_cache_(result_cache),
        plan_cache_(plan_cache) {}

  /// Lexes + optimizes + plans + executes one statement. A plan-cache hit
  /// is looked up by the lexer's fingerprint and does not parse; it
  /// re-binds and runs this planner's prepared plan of the template (see
  /// the file comment). Only a miss parses the tokens and optimizes. A
  /// leading
  /// EXPLAIN prefix skips execution and returns only the plan text; a
  /// leading EXPLAIN ANALYZE executes with per-operator instrumentation
  /// and fills QueryOutcome::analyzed_plan (both bypass the result cache).
  /// A non-null `context` makes the run cancellable: kCancelled once its
  /// deadline passes or its flag is set (checked before planning and at
  /// every operator checkpoint during execution).
  util::Result<QueryOutcome> Run(const std::string& sql,
                                 const PlannerOptions& options,
                                 const QueryContext* context = nullptr);

  /// Builds a fresh physical plan without executing (EXPLAIN); the planner
  /// does not keep it.
  util::Result<PhysicalPtr> Plan(const std::string& sql,
                                 const PlannerOptions& options,
                                 ExecStats* stats);

  /// The prepared plans this planner holds, including those of dead
  /// templates that the next lowering prunes.
  size_t prepared_plans() const { return prepared_.size(); }

 private:
  /// A physical plan lowered from a plan-cache template, kept for the
  /// template's later hits.
  struct PreparedPlan {
    std::weak_ptr<LogicalNode> source;  // the template
    ExecStats stats;                    // the operators count here
    std::vector<LiteralSlot> slots;     // every tagged literal copy
    PhysicalPtr root;
  };
  /// A template's identity and the lowering inputs it does not carry.
  struct PreparedKey {
    const LogicalNode* plan;
    bool index_selection;
    bool hash_join;
    int parallelism;  // at least 1

    auto operator<=>(const PreparedKey&) const = default;
  };

  /// Lowers `node` into operators that bind copies of its expressions,
  /// which keep the plan's own literals; with `slots`, records every
  /// tagged literal copy there.
  util::Result<PhysicalPtr> ToPhysical(
      const LogicalPtr& node, const PlannerOptions& options, ExecStats* stats,
      std::vector<LiteralSlot>* slots = nullptr);

  /// The prepared plan of `plan` under `options`, lowered and kept on first
  /// use, with its literal slots assigned under `params` (null: the
  /// template's own literals).
  util::Result<PreparedPlan*> Prepare(const LogicalPtr& plan,
                                      const PlannerOptions& options,
                                      const ParamBindings* params);

  /// The parallel context for one planning pass; lazily creates (and, on a
  /// parallelism change, resizes) the planner-owned worker pool, dropping
  /// the prepared plans that ran on the old one.
  ParallelContext MakeParallelContext(const PlannerOptions& options);

  Catalog* catalog_;
  ResultCache* result_cache_;
  PlanCache* plan_cache_;
  std::unique_ptr<util::ThreadPool> pool_;
  int pool_workers_ = 0;
  // Declared after the pool: destroyed before the pool its plans run on.
  std::map<PreparedKey, PreparedPlan> prepared_;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PLANNER_H_
