// Physical operators (volcano iterator model). Each operator exposes
// Open()/Next(&row) and its output schema; ExplainString() renders the
// physical plan for EXPLAIN output and the E2 ablation logs. Open()/Next()
// are non-virtual shells on the base class that maintain per-operator
// execution stats (rows_out, next_calls, and — under EXPLAIN ANALYZE —
// cumulative time) and the cancellation checkpoints; operators implement
// OpenImpl()/NextImpl().

#ifndef DRUGTREE_QUERY_PHYSICAL_H_
#define DRUGTREE_QUERY_PHYSICAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/explain.h"
#include "query/catalog.h"
#include "query/expr.h"
#include "query/logical_plan.h"
#include "query/parser.h"
#include "query/query_context.h"
#include "storage/table.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace drugtree {
namespace query {

/// Execution-wide counters (reported by benchmarks).
struct ExecStats {
  int64_t rows_scanned = 0;       // rows read from base tables
  int64_t rows_index_fetched = 0; // rows fetched through an index
  int64_t rows_joined = 0;        // rows emitted by join operators
  int64_t predicate_evals = 0;    // per-row predicate evaluations
  int64_t bytes_scanned = 0;      // storage bytes sequential scans touched:
                                  // encoded segment bytes on the encoded
                                  // path, the approximate bytes of every
                                  // live row read on the plain path
};

/// Morsel-parallel execution context threaded from the planner into
/// CPU-heavy operators (scan filtering, hash-join build hashing). A null
/// pool or parallelism <= 1 keeps every operator on the serial path.
/// Parallel operators are morsel-deterministic: per-morsel results are
/// recombined in morsel order, so output is identical to serial execution.
struct ParallelContext {
  util::ThreadPool* pool = nullptr;
  int parallelism = 1;
  /// Rows per morsel; also the minimum input size worth parallelizing.
  size_t morsel_rows = 1024;

  bool enabled() const { return pool != nullptr && parallelism > 1; }
};

/// Per-operator execution counters, collected by the base Open()/Next()
/// shells. Row/call counts are always on; timing is only collected after
/// EnableAnalyze() to keep the default path cheap.
struct OperatorStats {
  int64_t rows_out = 0;        // rows handed to the parent
  int64_t next_calls = 0;      // Next() invocations (including the last
                               // exhausted one)
  int64_t elapsed_micros = 0;  // Open()+Next() time, inclusive of children
                               // (only under EnableAnalyze)
  int64_t bytes_scanned = 0;   // storage bytes touched by scan operators
                               // (see ExecStats::bytes_scanned); rendered
                               // as `bytes=` by EXPLAIN ANALYZE when > 0
};

class PhysicalOperator {
 public:
  /// Releases any operator-state memory charged against the query's tracker
  /// (materialized build sides, sort buffers, aggregate state).
  virtual ~PhysicalOperator();

  /// Prepares for iteration (binds expressions, builds hash tables, sorts).
  util::Status Open();

  /// Produces the next row. Returns false when exhausted.
  util::Result<bool> Next(storage::Row* out);

  const storage::Schema& schema() const { return schema_; }

  /// One-line operator description.
  virtual std::string Describe() const = 0;

  /// Indented subtree rendering.
  std::string ExplainString(int indent = 0) const;

  /// Switches the whole subtree into EXPLAIN ANALYZE mode: subsequent
  /// Open()/Next() calls are timed against `clock` (a SimulatedClock gives
  /// exact simulated attribution; RealClock gives wall time).
  void EnableAnalyze(const util::Clock* clock);

  /// Attaches a deadline/cancellation context to the whole subtree (null
  /// detaches). The base shells check it in Open() and every
  /// `kCancelCheckInterval` Next() calls; long-running operator loops
  /// (serial scans, nested-loop inner passes, parallel morsels) add their
  /// own checks so cancellation latency stays bounded by a morsel, not by
  /// output cardinality.
  void SetQueryContext(const QueryContext* context);

  const OperatorStats& op_stats() const { return op_stats_; }

  /// The annotated plan tree for EXPLAIN ANALYZE rendering (call after the
  /// plan has been drained).
  obs::ExplainNode AnalyzeTree() const;

 protected:
  virtual util::Status OpenImpl() = 0;
  virtual util::Result<bool> NextImpl(storage::Row* out) = 0;

  /// Cancellation checkpoint granularity for row-at-a-time loops.
  static constexpr int64_t kCancelCheckInterval = 64;
  /// Row granularity for checks inside tight operator-internal loops.
  static constexpr int64_t kCancelCheckRows = 1024;

  /// The attached context; null when the query is not cancellable.
  const QueryContext* query_context() const { return query_context_; }

  /// Charges `bytes` of operator-held state against the query's memory
  /// tracker (no-op when no tracker is attached). Charges accumulate and
  /// are released by the operator destructor, so call once per buffer
  /// growth, not per row. Returns the tracker's resource-exhausted status
  /// when the charge would breach a hard limit; operators must propagate
  /// that status so the query aborts instead of OOMing.
  util::Status ChargeOperatorMemory(int64_t bytes);

  /// Accumulates storage bytes touched into this operator's stats (scan
  /// operators only; surfaces in EXPLAIN ANALYZE as `bytes=`).
  void AddBytesScanned(int64_t bytes) { op_stats_.bytes_scanned += bytes; }

  storage::Schema schema_;
  std::vector<PhysicalOperator*> explain_children_;  // borrowed, for explain

 private:
  OperatorStats op_stats_;
  const util::Clock* analyze_clock_ = nullptr;  // non-null => timing on
  const QueryContext* query_context_ = nullptr;
  // Memory accounting: tracker the charges went to (captured at first
  // charge so destruction releases against the right node even after the
  // context is detached) and the total charged.
  obs::MemoryTracker* charged_tracker_ = nullptr;
  int64_t charged_bytes_ = 0;
};

using PhysicalPtr = std::unique_ptr<PhysicalOperator>;

/// Full-table scan with an optional residual predicate.
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(const storage::Table* table, std::string alias, ExprPtr predicate,
            EvalContext ctx, ExecStats* stats, ParallelContext par = {});
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  /// Filters the whole table in morsels on par_.pool at Open() time; hits
  /// are concatenated in morsel (= row) order so the row stream is
  /// identical to the serial cursor path.
  util::Status MaterializeParallel();

  /// Row production directly on the table's encoded snapshot: the
  /// predicate runs one segment at a time on the encoded form (dictionary
  /// code ranges, RLE runs, frame-of-reference deltas) and only the
  /// surviving rows are decoded. Taken when Open() found a fresh snapshot
  /// and the whole predicate translated to at least one encoded clause;
  /// row order and results are identical to the plain path.
  util::Result<bool> NextEncoded(storage::Row* out);

  const storage::Table* table_;
  std::string alias_;
  ExprPtr predicate_;
  EvalContext ctx_;
  ExecStats* stats_;
  ParallelContext par_;
  int64_t cursor_ = 0;
  bool materialized_ = false;             // parallel path taken at Open()
  std::vector<storage::RowId> matches_;   // surviving rows, in row order
  size_t mcursor_ = 0;
  // Encoded-scan state (null snapshot => plain path).
  const storage::EncodedTableSnapshot* encoded_ = nullptr;
  std::vector<storage::EncodedPredicate> enc_clauses_;
  size_t enc_seg_ = 0;                    // next segment to filter
  std::vector<uint32_t> enc_matches_;     // survivors of segment enc_seg_-1
  std::vector<uint32_t> enc_scratch_;
  size_t enc_pos_ = 0;                    // next survivor to emit
};

/// Index access path: equality (hash or B+-tree) or range (B+-tree).
class IndexScanOp : public PhysicalOperator {
 public:
  struct Bounds {
    storage::Value equal;                // set for point lookups
    storage::Value lo, hi;               // set for range scans (may be NULL)
    bool lo_inclusive = true, hi_inclusive = true;
    bool is_point = false;
  };

  IndexScanOp(const storage::Table* table, std::string alias,
              std::string column, Bounds bounds, ExprPtr residual,
              EvalContext ctx, ExecStats* stats);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  const storage::Table* table_;
  std::string alias_;
  std::string column_;
  Bounds bounds_;
  ExprPtr residual_;
  EvalContext ctx_;
  ExecStats* stats_;
  std::vector<storage::RowId> matches_;
  size_t cursor_ = 0;
};

class FilterOp : public PhysicalOperator {
 public:
  FilterOp(PhysicalPtr child, ExprPtr predicate, EvalContext ctx,
           ExecStats* stats);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr child_;
  ExprPtr predicate_;
  EvalContext ctx_;
  ExecStats* stats_;
};

class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(PhysicalPtr child, std::vector<OutputColumn> outputs,
            EvalContext ctx);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr child_;
  std::vector<OutputColumn> outputs_;
  EvalContext ctx_;
  // Output positions whose expression is a bare column ref that no other
  // output references; those Values are moved out of the child row instead
  // of re-evaluated+copied (-1 = evaluate normally). The child row buffer
  // is a member so its capacity is reused across calls.
  std::vector<int> move_cols_;
  storage::Row in_row_;
};

/// Nested-loop join with an arbitrary (possibly null) condition; the right
/// input is materialized once.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(PhysicalPtr left, PhysicalPtr right, ExprPtr condition,
                   EvalContext ctx, ExecStats* stats);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr left_, right_;
  ExprPtr condition_;
  EvalContext ctx_;
  ExecStats* stats_;
  std::vector<storage::Row> right_rows_;
  storage::Row current_left_;
  bool have_left_ = false;
  size_t right_cursor_ = 0;
};

/// Hash join on one or more equi-key pairs, with an optional residual
/// condition; builds on the right input, probes with the left.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(PhysicalPtr left, PhysicalPtr right,
             std::vector<std::pair<ExprPtr, ExprPtr>> key_pairs,
             ExprPtr residual, EvalContext ctx, ExecStats* stats,
             ParallelContext par = {});
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  util::Result<uint64_t> KeyHash(const std::vector<ExprPtr>& exprs,
                                 const storage::Row& row,
                                 std::vector<storage::Value>* key_out);

  PhysicalPtr left_, right_;
  std::vector<std::pair<ExprPtr, ExprPtr>> key_pairs_;
  ExprPtr residual_;
  EvalContext ctx_;
  ExecStats* stats_;
  ParallelContext par_;
  // Build side: rows materialized in arrival order; the table maps key hash
  // to row indices in that order. Key hashing is morsel-parallel when a
  // pool is available, but the index lists (and thus probe match order) are
  // assembled serially in row order, so output is parallelism-independent.
  std::vector<storage::Row> right_rows_;
  std::unordered_map<uint64_t, std::vector<size_t>> hash_table_;
  // Key expressions split out of key_pairs_ at Open() so Next() does not
  // rebuild the vectors per call.
  std::vector<ExprPtr> left_keys_, right_keys_;
  storage::Row current_left_;
  std::vector<storage::Value> current_key_;
  bool have_left_ = false;
  const std::vector<size_t>* probe_list_ = nullptr;
  size_t probe_pos_ = 0;
};

/// Index nested-loop join against a base table: for each left row, the
/// outer key is evaluated and the inner table's hash index on
/// `index_column` is probed, so only the matching rows are fetched (in row
/// id order). Each fetched row must pass the inner scan's pushed-down
/// predicate, and each joined row the residual (the remaining join
/// conjuncts). NULL keys never join. Output order is the left order, then
/// the inner rows' id order; nothing is materialized.
class IndexNestedLoopJoinOp : public PhysicalOperator {
 public:
  IndexNestedLoopJoinOp(PhysicalPtr left, const storage::Table* table,
                        std::string alias, std::string index_column,
                        ExprPtr outer_key, ExprPtr inner_predicate,
                        ExprPtr residual, EvalContext ctx, ExecStats* stats);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr left_;
  const storage::Table* table_;
  std::string alias_;
  std::string index_column_;
  ExprPtr outer_key_;        // bound to the left schema
  ExprPtr inner_predicate_;  // bound to the inner table's scan schema
  ExprPtr residual_;         // bound to the joined schema
  EvalContext ctx_;
  ExecStats* stats_;
  const storage::HashIndex* index_ = nullptr;
  storage::Row current_left_;
  const std::vector<storage::RowId>* postings_ = nullptr;  // current probe
  size_t posting_pos_ = 0;
  int64_t fetched_ = 0;  // posting entries walked (cancellation cadence)
};

/// Full sort (materializing).
class SortOp : public PhysicalOperator {
 public:
  SortOp(PhysicalPtr child, std::vector<OrderKey> keys, EvalContext ctx);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr child_;
  std::vector<OrderKey> keys_;
  EvalContext ctx_;
  std::vector<storage::Row> rows_;
  size_t cursor_ = 0;
};

/// Hash aggregation with COUNT/SUM/AVG/MIN/MAX.
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(PhysicalPtr child, std::vector<ExprPtr> group_by,
                  std::vector<OutputColumn> aggregates,
                  storage::Schema output_schema, EvalContext ctx);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  struct AggState {
    int64_t count = 0;          // rows seen (for COUNT(*) / AVG)
    int64_t non_null = 0;       // non-null inputs (for COUNT(x))
    double sum = 0.0;
    bool sum_is_int = true;
    storage::Value min, max;
  };

  PhysicalPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<OutputColumn> aggregates_;
  EvalContext ctx_;
  std::vector<std::pair<storage::Row, std::vector<AggState>>> groups_;
  size_t cursor_ = 0;
};

/// Streaming duplicate elimination (hash set over encoded rows). The set's
/// growth is charged against the query's memory tracker.
class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(PhysicalPtr child);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr child_;
  std::unordered_set<std::string> seen_;
  int64_t pending_bytes_ = 0;  // set growth not yet charged
};

class LimitOp : public PhysicalOperator {
 public:
  LimitOp(PhysicalPtr child, int64_t limit);
  util::Status OpenImpl() override;
  util::Result<bool> NextImpl(storage::Row* out) override;
  std::string Describe() const override;

 private:
  PhysicalPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace query
}  // namespace drugtree

#endif  // DRUGTREE_QUERY_PHYSICAL_H_
