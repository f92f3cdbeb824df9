// Query results and the pull-to-completion executor. ExecutePlan runs a
// plan once; a plan kept for more runs (planner.h) gets each run's context
// attached here, null included, and its caller ends each run with
// PhysicalOperator::Release().

#ifndef DRUGTREE_QUERY_EXECUTOR_H_
#define DRUGTREE_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "query/physical.h"
#include "query/query_context.h"
#include "util/result.h"

namespace drugtree {
namespace query {

/// A fully materialized query result.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<storage::Row> rows;

  /// Rough in-memory footprint, used as the result-cache charge.
  uint64_t ApproxBytes() const;

  /// ASCII table rendering (for examples and debugging).
  std::string ToString(size_t max_rows = 50) const;
};

/// Opens `root` and drains it into a QueryResult. `context` is attached to
/// the whole operator tree (null detaches a previous run's): a non-null one
/// enforces its deadline and cancellation, so execution aborts with
/// kCancelled at the next operator checkpoint once the deadline passes or
/// the cancel flag is set, and charges its memory tracker. The third parameter is
/// ignored: it is the batch size of the removed vectorized engine, still
/// declared only because the perfbench harness passes it (drop it once
/// perfbench no longer does).
util::Result<QueryResult> ExecutePlan(PhysicalOperator* root,
                                      const QueryContext* context = nullptr,
                                      size_t batch_size = 1);

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_EXECUTOR_H_
