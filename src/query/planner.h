// Planner: the query engine's front door. Lexes, optimizes (or reuses a
// cached plan), physically plans, and executes statements, with every
// optimization independently toggleable (the E1/E2 ablation axes) and an
// optional semantic result cache in front of the whole pipeline. Physical
// planning lowers each logical scan's column list (projection pruning,
// rules.h) into the scan and index-join operators, which copy only the
// listed columns.

#ifndef DRUGTREE_QUERY_PLANNER_H_
#define DRUGTREE_QUERY_PLANNER_H_

#include <memory>
#include <string>

#include "obs/cost_calibrator.h"
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
  /// `catalog` is borrowed; the caches and the calibrator may be null (and
  /// are shared across planners when the serving layer passes the same
  /// instances to every slot). With a `plan_cache`, optimized logical plans
  /// are cached as parameterized templates keyed by the statement's
  /// structural fingerprint; with a `calibrator`, optimization prices plans
  /// with its latest calibrated coefficients and every analyzed execution
  /// feeds observations back.
  explicit Planner(Catalog* catalog, ResultCache* result_cache = nullptr,
                   PlanCache* plan_cache = nullptr,
                   obs::CostCalibrator* calibrator = nullptr)
      : catalog_(catalog),
        result_cache_(result_cache),
        plan_cache_(plan_cache),
        calibrator_(calibrator) {}

  /// Lexes + optimizes + plans + executes one statement. A plan-cache hit
  /// is looked up by the lexer's fingerprint and does not parse; only a
  /// miss parses the tokens and optimizes. A leading
  /// EXPLAIN prefix skips execution and returns only the plan text; a
  /// leading EXPLAIN ANALYZE executes with per-operator instrumentation
  /// and fills QueryOutcome::analyzed_plan (both bypass the result cache).
  /// A non-null `context` makes the run cancellable: kCancelled once its
  /// deadline passes or its flag is set (checked before planning and at
  /// every operator checkpoint during execution).
  util::Result<QueryOutcome> Run(const std::string& sql,
                                 const PlannerOptions& options,
                                 const QueryContext* context = nullptr);

  /// Builds the physical plan without executing (EXPLAIN).
  util::Result<PhysicalPtr> Plan(const std::string& sql,
                                 const PlannerOptions& options,
                                 ExecStats* stats);

 private:
  /// Lowers `node`, substituting `params` (null: the plan's own literals)
  /// into the expression copies the operators bind.
  util::Result<PhysicalPtr> ToPhysical(const LogicalPtr& node,
                                       const PlannerOptions& options,
                                       ExecStats* stats,
                                       const ParamBindings* params = nullptr);

  /// The parallel context for one planning pass; lazily creates (and, on a
  /// parallelism change, resizes) the planner-owned worker pool.
  ParallelContext MakeParallelContext(const PlannerOptions& options);

  Catalog* catalog_;
  ResultCache* result_cache_;
  PlanCache* plan_cache_;
  obs::CostCalibrator* calibrator_;
  std::unique_ptr<util::ThreadPool> pool_;
  int pool_workers_ = 0;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PLANNER_H_
