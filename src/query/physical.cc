#include "query/physical.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Column;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

namespace {

// Qualified scan schema for a base table under an alias.
util::Result<Schema> ScanSchema(const Table& table, const std::string& alias) {
  std::vector<Column> cols;
  for (const auto& c : table.schema().columns()) {
    cols.push_back({alias + "." + c.name, c.type, c.nullable});
  }
  return Schema::Create(std::move(cols));
}

uint64_t HashKey(const std::vector<Value>& key) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const auto& v : key) {
    h ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// Morsel accounting for the parallel operator paths.
obs::Counter* MorselCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Default()->GetCounter("query.parallel.morsels");
  return c;
}

obs::Counter* ParallelRowsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Default()->GetCounter("query.parallel.rows");
  return c;
}

/// Estimated resident bytes of one materialized row: vector header, inline
/// Value slots, and string payloads.
int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes =
      static_cast<int64_t>(sizeof(Row) + row.size() * sizeof(Value));
  for (const auto& v : row) {
    if (v.type() == ValueType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

/// Materializing loops charge in chunks of this size so a hard limit aborts
/// the build mid-flight (bounded overshoot) without a tracker round-trip
/// per row.
constexpr int64_t kChargeChunkBytes = 64 * 1024;

/// Maps a comparison BinaryOp to the storage layer's CompareOp; false for
/// non-comparison operators.
bool ToCompareOp(BinaryOp op, storage::CompareOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = storage::CompareOp::kEq; return true;
    case BinaryOp::kNe: *out = storage::CompareOp::kNe; return true;
    case BinaryOp::kLt: *out = storage::CompareOp::kLt; return true;
    case BinaryOp::kLe: *out = storage::CompareOp::kLe; return true;
    case BinaryOp::kGt: *out = storage::CompareOp::kGt; return true;
    case BinaryOp::kGe: *out = storage::CompareOp::kGe; return true;
    default: return false;
  }
}

/// Mirror of a comparison across `literal OP column` -> `column OP' literal`.
storage::CompareOp FlipCompareOp(storage::CompareOp op) {
  switch (op) {
    case storage::CompareOp::kLt: return storage::CompareOp::kGt;
    case storage::CompareOp::kLe: return storage::CompareOp::kGe;
    case storage::CompareOp::kGt: return storage::CompareOp::kLt;
    case storage::CompareOp::kGe: return storage::CompareOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Translates a scan predicate into encoded-executable clauses. Succeeds
/// only when the ENTIRE predicate is a conjunction of (column cmp literal)
/// clauses — partial translation would change error semantics (an encoded
/// clause could skip rows on which a residual clause would have raised,
/// e.g. a division by zero). A null predicate does not translate: a scan
/// without a predicate reads the plain rows, which needs no decoding. The
/// scan schema mirrors the table's column order, so bound indices are table
/// column indices.
bool TranslateEncodedPredicate(const ExprPtr& pred,
                               std::vector<storage::EncodedPredicate>* out) {
  out->clear();
  if (pred == nullptr) return false;
  for (const ExprPtr& clause : SplitConjuncts(pred)) {
    if (clause->kind != ExprKind::kBinary || clause->children.size() != 2) {
      return false;
    }
    storage::CompareOp op;
    if (!ToCompareOp(clause->bin_op, &op)) return false;
    const Expr* l = clause->children[0].get();
    const Expr* r = clause->children[1].get();
    const Expr* col;
    const Expr* lit;
    if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kLiteral) {
      col = l;
      lit = r;
    } else if (l->kind == ExprKind::kLiteral &&
               r->kind == ExprKind::kColumnRef) {
      col = r;
      lit = l;
      op = FlipCompareOp(op);
    } else {
      return false;
    }
    if (col->bound_index < 0) return false;
    out->push_back({static_cast<size_t>(col->bound_index), op, lit->literal});
  }
  return true;
}

}  // namespace

PhysicalOperator::~PhysicalOperator() {
  if (charged_tracker_ != nullptr && charged_bytes_ > 0) {
    charged_tracker_->Release(charged_bytes_);
  }
}

util::Status PhysicalOperator::ChargeOperatorMemory(int64_t bytes) {
  if (bytes <= 0) return util::Status::OK();
  // Stick with the tracker of the first charge: the destructor releases the
  // whole accumulated total against one node, so mixing trackers across a
  // context swap would corrupt both.
  obs::MemoryTracker* tracker = charged_tracker_;
  if (tracker == nullptr && query_context_ != nullptr) {
    tracker = query_context_->memory;
  }
  if (tracker == nullptr) return util::Status::OK();
  DRUGTREE_RETURN_IF_ERROR(tracker->TryCharge(bytes));
  charged_tracker_ = tracker;
  charged_bytes_ += bytes;
  return util::Status::OK();
}

std::string PhysicalOperator::ExplainString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const auto* c : explain_children_) {
    out += c->ExplainString(indent + 1);
  }
  return out;
}

util::Status PhysicalOperator::Open() {
  if (query_context_ != nullptr) {
    DRUGTREE_RETURN_IF_ERROR(query_context_->Check());
  }
  if (analyze_clock_ == nullptr) return OpenImpl();
  int64_t start = analyze_clock_->NowMicros();
  util::Status status = OpenImpl();
  op_stats_.elapsed_micros += analyze_clock_->NowMicros() - start;
  return status;
}

util::Result<bool> PhysicalOperator::Next(storage::Row* out) {
  ++op_stats_.next_calls;
  if (query_context_ != nullptr &&
      (op_stats_.next_calls % kCancelCheckInterval) == 0) {
    util::Status live = query_context_->Check();
    if (!live.ok()) return live;
  }
  if (analyze_clock_ == nullptr) {
    util::Result<bool> more = NextImpl(out);
    if (more.ok() && *more) ++op_stats_.rows_out;
    return more;
  }
  int64_t start = analyze_clock_->NowMicros();
  util::Result<bool> more = NextImpl(out);
  op_stats_.elapsed_micros += analyze_clock_->NowMicros() - start;
  if (more.ok() && *more) ++op_stats_.rows_out;
  return more;
}

void PhysicalOperator::EnableAnalyze(const util::Clock* clock) {
  analyze_clock_ = clock;
  for (auto* c : explain_children_) c->EnableAnalyze(clock);
}

void PhysicalOperator::SetQueryContext(const QueryContext* context) {
  query_context_ = context;
  for (auto* c : explain_children_) c->SetQueryContext(context);
}

obs::ExplainNode PhysicalOperator::AnalyzeTree() const {
  obs::ExplainNode node;
  node.label = Describe();
  node.rows_out = op_stats_.rows_out;
  node.next_calls = op_stats_.next_calls;
  node.bytes_scanned = op_stats_.bytes_scanned;
  node.elapsed_micros = op_stats_.elapsed_micros;
  for (const auto* c : explain_children_) {
    node.children.push_back(c->AnalyzeTree());
  }
  return node;
}

// ---------------------------------------------------------------- SeqScanOp

SeqScanOp::SeqScanOp(const Table* table, std::string alias, ExprPtr predicate,
                     EvalContext ctx, ExecStats* stats, ParallelContext par)
    : table_(table),
      alias_(std::move(alias)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      stats_(stats),
      par_(par) {}

util::Status SeqScanOp::OpenImpl() {
  DRUGTREE_ASSIGN_OR_RETURN(schema_, ScanSchema(*table_, alias_));
  if (predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(predicate_.get(), schema_));
  }
  cursor_ = 0;
  mcursor_ = 0;
  materialized_ = false;
  matches_.clear();
  encoded_ = nullptr;
  enc_clauses_.clear();
  enc_seg_ = 0;
  enc_pos_ = 0;
  enc_matches_.clear();
  // Encoded fast path: only when the table has a fresh encoded snapshot and
  // the whole predicate translates to (column cmp literal) conjuncts —
  // anything else falls back to the plain paths, which are exact by
  // construction.
  if (table_->encoded() != nullptr &&
      TranslateEncodedPredicate(predicate_, &enc_clauses_)) {
    encoded_ = table_->encoded();
    return util::Status::OK();
  }
  if (par_.enabled() && predicate_ &&
      static_cast<size_t>(table_->NumRows()) >= 2 * par_.morsel_rows) {
    DRUGTREE_RETURN_IF_ERROR(MaterializeParallel());
    materialized_ = true;
  }
  return util::Status::OK();
}

util::Status SeqScanOp::MaterializeParallel() {
  DT_SPAN("exec.parallel_scan");
  const size_t n = static_cast<size_t>(table_->NumRows());
  const size_t morsel = par_.morsel_rows;
  const size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<std::vector<storage::RowId>> hits(num_morsels);
  std::vector<util::Status> errors(num_morsels, util::Status::OK());
  std::vector<int64_t> scanned(num_morsels, 0);
  std::vector<int64_t> bytes(num_morsels, 0);
  const QueryContext* qctx = query_context();
  par_.pool->ParallelFor(num_morsels, [&](size_t m) {
    // Morsel-boundary cancellation point: an expired deadline stops the
    // scan within one morsel of work per worker.
    if (qctx != nullptr) {
      util::Status live = qctx->Check();
      if (!live.ok()) {
        errors[m] = live;
        return;
      }
    }
    const size_t begin = m * morsel;
    const size_t end = std::min(n, begin + morsel);
    for (size_t i = begin; i < end; ++i) {
      storage::RowId id = static_cast<storage::RowId>(i);
      if (table_->IsDeleted(id)) continue;
      const Row& row = table_->row(id);
      ++scanned[m];
      bytes[m] += ApproxRowBytes(row);
      auto keep = EvalPredicate(*predicate_, row, ctx_);
      if (!keep.ok()) {
        errors[m] = keep.status();
        return;
      }
      if (*keep) hits[m].push_back(id);
    }
  });
  for (const auto& s : errors) {
    if (!s.ok()) return s;
  }
  for (size_t m = 0; m < num_morsels; ++m) {
    stats_->rows_scanned += scanned[m];
    stats_->predicate_evals += scanned[m];
    stats_->bytes_scanned += bytes[m];
    AddBytesScanned(bytes[m]);
    matches_.insert(matches_.end(), hits[m].begin(), hits[m].end());
  }
  MorselCounter()->Add(static_cast<int64_t>(num_morsels));
  ParallelRowsCounter()->Add(static_cast<int64_t>(n));
  return ChargeOperatorMemory(
      static_cast<int64_t>(matches_.size() * sizeof(storage::RowId)));
}

util::Result<bool> SeqScanOp::NextImpl(Row* out) {
  if (encoded_ != nullptr) return NextEncoded(out);
  if (materialized_) {
    // Stats were accumulated during the parallel materialization.
    if (mcursor_ >= matches_.size()) return false;
    *out = table_->row(matches_[mcursor_++]);
    return true;
  }
  while (cursor_ < table_->NumRows()) {
    storage::RowId id = cursor_++;
    // A selective predicate can walk many rows per emitted one, so the
    // base-shell checkpoint (per Next() call) is not enough here.
    if (query_context() != nullptr && (cursor_ % kCancelCheckRows) == 0) {
      DRUGTREE_RETURN_IF_ERROR(query_context()->Check());
    }
    if (table_->IsDeleted(id)) continue;
    const Row& row = table_->row(id);
    const int64_t bytes = ApproxRowBytes(row);
    ++stats_->rows_scanned;
    stats_->bytes_scanned += bytes;
    AddBytesScanned(bytes);
    if (predicate_) {
      ++stats_->predicate_evals;
      DRUGTREE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, row, ctx_));
      if (!keep) continue;
    }
    *out = row;
    return true;
  }
  return false;
}

util::Result<bool> SeqScanOp::NextEncoded(Row* out) {
  while (enc_pos_ >= enc_matches_.size()) {
    // Current segment drained: filter the next one. Matches are produced
    // directly on the encoded form; only survivors are ever decoded.
    if (enc_seg_ >= encoded_->segments.size()) return false;
    // Segment-boundary checkpoint: a selective predicate can walk many
    // segments per emitted row.
    if (query_context() != nullptr) {
      DRUGTREE_RETURN_IF_ERROR(query_context()->Check());
    }
    const storage::EncodedSegment& seg = encoded_->segments[enc_seg_++];
    stats_->rows_scanned += static_cast<int64_t>(seg.num_rows);
    stats_->predicate_evals += static_cast<int64_t>(seg.num_rows);
    stats_->bytes_scanned += static_cast<int64_t>(seg.encoded_bytes);
    AddBytesScanned(static_cast<int64_t>(seg.encoded_bytes));
    enc_pos_ = 0;
    storage::FilterSegment(seg, enc_clauses_, &enc_matches_, &enc_scratch_);
  }
  const storage::EncodedSegment& seg = encoded_->segments[enc_seg_ - 1];
  const size_t i = enc_matches_[enc_pos_++];
  out->clear();
  out->reserve(seg.columns.size());
  for (const storage::EncodedColumn& col : seg.columns) {
    out->push_back(col.ValueAt(i));
  }
  return true;
}

std::string SeqScanOp::Describe() const {
  std::string out = "SeqScan " + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  if (predicate_) out += " [filter: " + predicate_->ToString() + "]";
  if (const storage::EncodedTableSnapshot* snap = table_->encoded()) {
    out += " [encoded: " + snap->Summary(table_->schema()) + "]";
  }
  return out;
}

// -------------------------------------------------------------- IndexScanOp

IndexScanOp::IndexScanOp(const Table* table, std::string alias,
                         std::string column, Bounds bounds, ExprPtr residual,
                         EvalContext ctx, ExecStats* stats)
    : table_(table),
      alias_(std::move(alias)),
      column_(std::move(column)),
      bounds_(std::move(bounds)),
      residual_(std::move(residual)),
      ctx_(ctx),
      stats_(stats) {}

util::Status IndexScanOp::OpenImpl() {
  DRUGTREE_ASSIGN_OR_RETURN(schema_, ScanSchema(*table_, alias_));
  if (residual_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(residual_.get(), schema_));
  }
  if (bounds_.is_point) {
    DRUGTREE_ASSIGN_OR_RETURN(matches_,
                              table_->IndexLookup(column_, bounds_.equal));
  } else {
    DRUGTREE_ASSIGN_OR_RETURN(
        matches_, table_->IndexRange(column_, bounds_.lo, bounds_.lo_inclusive,
                                     bounds_.hi, bounds_.hi_inclusive));
  }
  cursor_ = 0;
  return ChargeOperatorMemory(
      static_cast<int64_t>(matches_.size() * sizeof(storage::RowId)));
}

util::Result<bool> IndexScanOp::NextImpl(Row* out) {
  while (cursor_ < matches_.size()) {
    storage::RowId id = matches_[cursor_++];
    if (table_->IsDeleted(id)) continue;
    ++stats_->rows_index_fetched;
    const Row& row = table_->row(id);
    if (residual_) {
      ++stats_->predicate_evals;
      DRUGTREE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, row, ctx_));
      if (!keep) continue;
    }
    *out = row;
    return true;
  }
  return false;
}

std::string IndexScanOp::Describe() const {
  std::string out = "IndexScan " + table_->name() + "." + column_;
  if (bounds_.is_point) {
    out += " = " + bounds_.equal.ToString();
  } else {
    out += util::StringPrintf(
        " in %c%s, %s%c", bounds_.lo_inclusive ? '[' : '(',
        bounds_.lo.is_null() ? "-inf" : bounds_.lo.ToString().c_str(),
        bounds_.hi.is_null() ? "+inf" : bounds_.hi.ToString().c_str(),
        bounds_.hi_inclusive ? ']' : ')');
  }
  if (residual_) out += " [residual: " + residual_->ToString() + "]";
  return out;
}

// ----------------------------------------------------------------- FilterOp

FilterOp::FilterOp(PhysicalPtr child, ExprPtr predicate, EvalContext ctx,
                   ExecStats* stats)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      stats_(stats) {
  explain_children_ = {child_.get()};
}

util::Status FilterOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  schema_ = child_->schema();
  if (predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(predicate_.get(), schema_));
  }
  return util::Status::OK();
}

util::Result<bool> FilterOp::NextImpl(Row* out) {
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    if (!predicate_) return true;
    ++stats_->predicate_evals;
    DRUGTREE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, *out, ctx_));
    if (keep) return true;
  }
}

std::string FilterOp::Describe() const {
  return "Filter " + (predicate_ ? predicate_->ToString() : "true");
}

// ---------------------------------------------------------------- ProjectOp

ProjectOp::ProjectOp(PhysicalPtr child, std::vector<OutputColumn> outputs,
                     EvalContext ctx)
    : child_(std::move(child)), outputs_(std::move(outputs)), ctx_(ctx) {
  explain_children_ = {child_.get()};
}

util::Status ProjectOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  std::vector<Column> cols;
  for (auto& o : outputs_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(o.expr.get(), child_->schema()));
    cols.push_back({o.name, ValueType::kString, true});
  }
  DRUGTREE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(cols)));
  // Move optimization: an output that is a bare column ref may steal the
  // child's Value instead of copying — but only if no other output
  // expression also reads that column (SELECT p.acc, p.acc or
  // SELECT x, x + 1 must keep copying).
  std::vector<int> ref_counts;
  auto count_refs = [&ref_counts](const Expr& e, auto&& self) -> void {
    if (e.kind == ExprKind::kColumnRef && e.bound_index >= 0) {
      if (static_cast<size_t>(e.bound_index) >= ref_counts.size()) {
        ref_counts.resize(static_cast<size_t>(e.bound_index) + 1, 0);
      }
      ++ref_counts[static_cast<size_t>(e.bound_index)];
    }
    for (const auto& c : e.children) self(*c, self);
  };
  for (const auto& o : outputs_) count_refs(*o.expr, count_refs);
  move_cols_.assign(outputs_.size(), -1);
  for (size_t i = 0; i < outputs_.size(); ++i) {
    const Expr& e = *outputs_[i].expr;
    if (e.kind == ExprKind::kColumnRef && e.bound_index >= 0 &&
        ref_counts[static_cast<size_t>(e.bound_index)] == 1) {
      move_cols_[i] = e.bound_index;
    }
  }
  return util::Status::OK();
}

util::Result<bool> ProjectOp::NextImpl(Row* out) {
  DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(&in_row_));
  if (!more) return false;
  out->clear();
  out->reserve(outputs_.size());
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (move_cols_[i] >= 0) {
      // The child row is discarded after this call; steal the value.
      out->push_back(std::move(in_row_[static_cast<size_t>(move_cols_[i])]));
      continue;
    }
    DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*outputs_[i].expr, in_row_,
                                                ctx_));
    out->push_back(std::move(v));
  }
  return true;
}

std::string ProjectOp::Describe() const {
  std::string out = "Project ";
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (i) out += ", ";
    out += outputs_[i].name;
  }
  return out;
}

// --------------------------------------------------------- NestedLoopJoinOp

NestedLoopJoinOp::NestedLoopJoinOp(PhysicalPtr left, PhysicalPtr right,
                                   ExprPtr condition, EvalContext ctx,
                                   ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      ctx_(ctx),
      stats_(stats) {
  explain_children_ = {left_.get(), right_.get()};
}

util::Status NestedLoopJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  DRUGTREE_RETURN_IF_ERROR(right_->Open());
  std::vector<Column> cols;
  for (const auto& c : left_->schema().columns()) cols.push_back(c);
  for (const auto& c : right_->schema().columns()) cols.push_back(c);
  DRUGTREE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(cols)));
  if (condition_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(condition_.get(), schema_));
  }
  // Materialize the inner side once, charging as it grows so a hard memory
  // limit aborts the build instead of completing it first.
  right_rows_.clear();
  Row r;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, right_->Next(&r));
    if (!more) break;
    pending += ApproxRowBytes(r);
    right_rows_.push_back(r);
    if (pending >= kChargeChunkBytes) {
      DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
      pending = 0;
    }
  }
  DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
  have_left_ = false;
  right_cursor_ = 0;
  return util::Status::OK();
}

util::Result<bool> NestedLoopJoinOp::NextImpl(Row* out) {
  for (;;) {
    if (!have_left_) {
      DRUGTREE_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      have_left_ = true;
      right_cursor_ = 0;
    }
    while (right_cursor_ < right_rows_.size()) {
      // A selective condition can walk the whole inner table per emitted
      // row; checkpoint by inner-row count, not by Next() call.
      if (query_context() != nullptr &&
          (right_cursor_ % static_cast<size_t>(kCancelCheckRows)) == 0 &&
          right_cursor_ != 0) {
        DRUGTREE_RETURN_IF_ERROR(query_context()->Check());
      }
      const Row& r = right_rows_[right_cursor_++];
      Row joined = current_left_;
      joined.insert(joined.end(), r.begin(), r.end());
      if (condition_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*condition_, joined, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
      *out = std::move(joined);
      return true;
    }
    have_left_ = false;
  }
}

std::string NestedLoopJoinOp::Describe() const {
  return "NestedLoopJoin" +
         (condition_ ? " ON " + condition_->ToString() : std::string(" (cross)"));
}

// --------------------------------------------------------------- HashJoinOp

HashJoinOp::HashJoinOp(PhysicalPtr left, PhysicalPtr right,
                       std::vector<std::pair<ExprPtr, ExprPtr>> key_pairs,
                       ExprPtr residual, EvalContext ctx, ExecStats* stats,
                       ParallelContext par)
    : left_(std::move(left)),
      right_(std::move(right)),
      key_pairs_(std::move(key_pairs)),
      residual_(std::move(residual)),
      ctx_(ctx),
      stats_(stats),
      par_(par) {
  explain_children_ = {left_.get(), right_.get()};
}

util::Result<uint64_t> HashJoinOp::KeyHash(const std::vector<ExprPtr>& exprs,
                                           const Row& row,
                                           std::vector<Value>* key_out) {
  key_out->clear();
  for (const auto& e : exprs) {
    DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
    key_out->push_back(std::move(v));
  }
  return HashKey(*key_out);
}

util::Status HashJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  DRUGTREE_RETURN_IF_ERROR(right_->Open());
  std::vector<Column> cols;
  for (const auto& c : left_->schema().columns()) cols.push_back(c);
  for (const auto& c : right_->schema().columns()) cols.push_back(c);
  DRUGTREE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(cols)));

  // Bind: left keys to the left schema, right keys to the right schema,
  // residual to the joined schema.
  for (auto& [lk, rk] : key_pairs_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(lk.get(), left_->schema()));
    DRUGTREE_RETURN_IF_ERROR(BindExpr(rk.get(), right_->schema()));
  }
  if (residual_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(residual_.get(), schema_));
  }

  // Split the key pairs once; Next() reuses these.
  left_keys_.clear();
  right_keys_.clear();
  for (auto& [lk, rk] : key_pairs_) {
    left_keys_.push_back(lk);
    right_keys_.push_back(rk);
  }

  // Build phase on the right input: materialize, hash the keys (in morsels
  // when a pool is available), then index hash -> row positions in row
  // order. The index layout is independent of the hashing schedule, so the
  // probe side sees identical match order at any parallelism.
  hash_table_.clear();
  right_rows_.clear();
  Row r;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, right_->Next(&r));
    if (!more) break;
    pending += ApproxRowBytes(r);
    right_rows_.push_back(r);
    if (pending >= kChargeChunkBytes) {
      DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
      pending = 0;
    }
  }
  DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
  const size_t n = right_rows_.size();
  std::vector<uint64_t> hashes(n);
  std::vector<char> valid(n, 0);
  if (par_.enabled() && n >= 2 * par_.morsel_rows) {
    DT_SPAN("exec.parallel_build");
    const size_t morsel = par_.morsel_rows;
    const size_t num_morsels = (n + morsel - 1) / morsel;
    std::vector<util::Status> errors(num_morsels, util::Status::OK());
    const QueryContext* qctx = query_context();
    par_.pool->ParallelFor(num_morsels, [&](size_t m) {
      // Morsel-boundary cancellation point (same contract as the scan).
      if (qctx != nullptr) {
        util::Status live = qctx->Check();
        if (!live.ok()) {
          errors[m] = live;
          return;
        }
      }
      std::vector<Value> key;
      const size_t begin = m * morsel;
      const size_t end = std::min(n, begin + morsel);
      for (size_t i = begin; i < end; ++i) {
        auto h = KeyHash(right_keys_, right_rows_[i], &key);
        if (!h.ok()) {
          errors[m] = h.status();
          return;
        }
        bool has_null = false;
        for (const auto& v : key) has_null |= v.is_null();
        valid[i] = has_null ? 0 : 1;  // NULL keys never join
        hashes[i] = *h;
      }
    });
    for (const auto& s : errors) {
      if (!s.ok()) return s;
    }
    MorselCounter()->Add(static_cast<int64_t>(num_morsels));
    ParallelRowsCounter()->Add(static_cast<int64_t>(n));
  } else {
    std::vector<Value> key;
    for (size_t i = 0; i < n; ++i) {
      DRUGTREE_ASSIGN_OR_RETURN(uint64_t h,
                                KeyHash(right_keys_, right_rows_[i], &key));
      bool has_null = false;
      for (const auto& v : key) has_null |= v.is_null();
      valid[i] = has_null ? 0 : 1;  // NULL keys never join
      hashes[i] = h;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) hash_table_[hashes[i]].push_back(i);
  }
  // Coarse hash-table overhead: bucket/node bookkeeping per distinct key
  // plus one index slot per build row.
  int64_t table_bytes = 0;
  for (const auto& [h, list] : hash_table_) {
    table_bytes += 64 + static_cast<int64_t>(list.size()) * 8;
  }
  DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(table_bytes));
  have_left_ = false;
  probe_list_ = nullptr;
  return util::Status::OK();
}

util::Result<bool> HashJoinOp::NextImpl(Row* out) {
  for (;;) {
    if (!have_left_) {
      DRUGTREE_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      DRUGTREE_ASSIGN_OR_RETURN(uint64_t h,
                                KeyHash(left_keys_, current_left_,
                                        &current_key_));
      bool has_null = false;
      for (const auto& v : current_key_) has_null |= v.is_null();
      if (has_null) continue;
      auto it = hash_table_.find(h);
      probe_list_ = it == hash_table_.end() ? nullptr : &it->second;
      probe_pos_ = 0;
      have_left_ = true;
    }
    while (probe_list_ != nullptr && probe_pos_ < probe_list_->size()) {
      const Row& r = right_rows_[(*probe_list_)[probe_pos_++]];
      // Verify key equality (hash collisions).
      std::vector<Value> rkey;
      DRUGTREE_RETURN_IF_ERROR(KeyHash(right_keys_, r, &rkey).status());
      if (rkey != current_key_) continue;
      Row joined = current_left_;
      joined.insert(joined.end(), r.begin(), r.end());
      if (residual_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*residual_, joined, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
      *out = std::move(joined);
      return true;
    }
    have_left_ = false;
  }
}

std::string HashJoinOp::Describe() const {
  std::string out = "HashJoin ON ";
  for (size_t i = 0; i < key_pairs_.size(); ++i) {
    if (i) out += " AND ";
    out += key_pairs_[i].first->ToString() + " = " +
           key_pairs_[i].second->ToString();
  }
  if (residual_) out += " [residual: " + residual_->ToString() + "]";
  return out;
}

// ---------------------------------------------------- IndexNestedLoopJoinOp

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    PhysicalPtr left, const Table* table, std::string alias,
    std::string index_column, ExprPtr outer_key, ExprPtr inner_predicate,
    ExprPtr residual, EvalContext ctx, ExecStats* stats)
    : left_(std::move(left)),
      table_(table),
      alias_(std::move(alias)),
      index_column_(std::move(index_column)),
      outer_key_(std::move(outer_key)),
      inner_predicate_(std::move(inner_predicate)),
      residual_(std::move(residual)),
      ctx_(ctx),
      stats_(stats) {
  explain_children_ = {left_.get()};
}

util::Status IndexNestedLoopJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  index_ = table_->GetHashIndex(index_column_);
  if (index_ == nullptr) {
    return util::Status::Internal("no hash index on " + table_->name() + "." +
                                  index_column_);
  }
  DRUGTREE_ASSIGN_OR_RETURN(Schema inner, ScanSchema(*table_, alias_));
  std::vector<Column> cols = left_->schema().columns();
  for (const auto& c : inner.columns()) cols.push_back(c);
  DRUGTREE_ASSIGN_OR_RETURN(schema_, Schema::Create(std::move(cols)));
  DRUGTREE_RETURN_IF_ERROR(BindExpr(outer_key_.get(), left_->schema()));
  if (inner_predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(inner_predicate_.get(), inner));
  }
  if (residual_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(residual_.get(), schema_));
  }
  postings_ = nullptr;
  posting_pos_ = 0;
  fetched_ = 0;
  return util::Status::OK();
}

util::Result<bool> IndexNestedLoopJoinOp::NextImpl(Row* out) {
  for (;;) {
    while (postings_ != nullptr && posting_pos_ < postings_->size()) {
      const storage::RowId id = (*postings_)[posting_pos_++];
      // A selective inner predicate can walk many fetched rows per emitted
      // one; checkpoint by rows fetched, not by Next() call.
      if (query_context() != nullptr && (++fetched_ % kCancelCheckRows) == 0) {
        DRUGTREE_RETURN_IF_ERROR(query_context()->Check());
      }
      if (table_->IsDeleted(id)) continue;
      ++stats_->rows_index_fetched;
      const Row& r = table_->row(id);
      if (inner_predicate_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*inner_predicate_, r, ctx_));
        if (!keep) continue;
      }
      Row joined;
      joined.reserve(current_left_.size() + r.size());
      joined.insert(joined.end(), current_left_.begin(), current_left_.end());
      joined.insert(joined.end(), r.begin(), r.end());
      if (residual_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*residual_, joined, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
      *out = std::move(joined);
      return true;
    }
    DRUGTREE_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
    if (!more) return false;
    DRUGTREE_ASSIGN_OR_RETURN(Value key,
                              EvalExpr(*outer_key_, current_left_, ctx_));
    // NULL keys never join (the index may still hold NULL-keyed rows).
    postings_ = key.is_null() ? nullptr : index_->Postings(key);
    posting_pos_ = 0;
  }
}

std::string IndexNestedLoopJoinOp::Describe() const {
  std::string out = "IndexNestedLoopJoin " + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  out += " ON " + outer_key_->ToString() + " = " + alias_ + "." +
         index_column_;
  if (inner_predicate_) {
    out += " [filter: " + inner_predicate_->ToString() + "]";
  }
  if (residual_) out += " [residual: " + residual_->ToString() + "]";
  return out;
}

// ------------------------------------------------------------------- SortOp

SortOp::SortOp(PhysicalPtr child, std::vector<OrderKey> keys, EvalContext ctx)
    : child_(std::move(child)), keys_(std::move(keys)), ctx_(ctx) {
  explain_children_ = {child_.get()};
}

util::Status SortOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  schema_ = child_->schema();
  for (auto& k : keys_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(k.expr.get(), schema_));
  }
  rows_.clear();
  Row r;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(&r));
    if (!more) break;
    pending += ApproxRowBytes(r);
    rows_.push_back(std::move(r));
    if (pending >= kChargeChunkBytes) {
      DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
      pending = 0;
    }
  }
  DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
  // Precompute sort keys, then sort by them.
  std::vector<std::pair<std::vector<Value>, size_t>> keyed;
  keyed.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::vector<Value> kv;
    for (const auto& k : keys_) {
      DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, rows_[i], ctx_));
      kv.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(kv), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const auto& a, const auto& b) {
                     for (size_t k = 0; k < keys_.size(); ++k) {
                       int c = a.first[k].Compare(b.first[k]);
                       if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (const auto& [kv, idx] : keyed) sorted.push_back(std::move(rows_[idx]));
  rows_ = std::move(sorted);
  cursor_ = 0;
  return util::Status::OK();
}

util::Result<bool> SortOp::NextImpl(Row* out) {
  if (cursor_ >= rows_.size()) return false;
  // Each sorted row is handed out exactly once; move, don't copy.
  *out = std::move(rows_[cursor_++]);
  return true;
}

std::string SortOp::Describe() const {
  std::string out = "Sort ";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) out += ", ";
    out += keys_[i].expr->ToString();
    if (!keys_[i].ascending) out += " DESC";
  }
  return out;
}

// --------------------------------------------------------- HashAggregateOp

HashAggregateOp::HashAggregateOp(PhysicalPtr child,
                                 std::vector<ExprPtr> group_by,
                                 std::vector<OutputColumn> aggregates,
                                 Schema output_schema, EvalContext ctx)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)),
      ctx_(ctx) {
  schema_ = std::move(output_schema);
  explain_children_ = {child_.get()};
}

util::Status HashAggregateOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  for (auto& g : group_by_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(g.get(), child_->schema()));
  }
  for (auto& a : aggregates_) {
    // Bind the aggregate's argument (if any) against the child schema.
    for (auto& arg : a.expr->children) {
      DRUGTREE_RETURN_IF_ERROR(BindExpr(arg.get(), child_->schema()));
    }
  }
  // Accumulate.
  std::unordered_map<uint64_t, std::vector<size_t>> key_to_groups;
  groups_.clear();
  Row in;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    Row key;
    for (const auto& g : group_by_) {
      DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, in, ctx_));
      key.push_back(std::move(v));
    }
    uint64_t h = HashKey(key);
    size_t group_idx = SIZE_MAX;
    auto it = key_to_groups.find(h);
    if (it != key_to_groups.end()) {
      for (size_t gi : it->second) {
        if (groups_[gi].first == key) {
          group_idx = gi;
          break;
        }
      }
    }
    if (group_idx == SIZE_MAX) {
      group_idx = groups_.size();
      // Memory grows with group cardinality, not input rows: charge per
      // new group (key bytes + aggregate states + index-entry overhead).
      pending += ApproxRowBytes(key) +
                 static_cast<int64_t>(aggregates_.size() * sizeof(AggState)) +
                 48;
      if (pending >= kChargeChunkBytes) {
        DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
        pending = 0;
      }
      groups_.emplace_back(key,
                           std::vector<AggState>(aggregates_.size()));
      key_to_groups[h].push_back(group_idx);
    }
    auto& states = groups_[group_idx].second;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      const Expr& agg = *aggregates_[a].expr;
      if (agg.children.empty()) continue;  // COUNT(*)
      DRUGTREE_ASSIGN_OR_RETURN(Value v, EvalExpr(*agg.children[0], in, ctx_));
      if (v.is_null()) continue;
      ++st.non_null;
      if (v.type() == ValueType::kInt64) {
        st.sum += static_cast<double>(v.AsInt64());
      } else if (v.type() == ValueType::kDouble) {
        st.sum += v.AsDouble();
        st.sum_is_int = false;
      }
      if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
      if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
    }
  }
  DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
  // A global aggregate (no GROUP BY) over zero rows still emits one group.
  if (groups_.empty() && group_by_.empty()) {
    groups_.emplace_back(Row{}, std::vector<AggState>(aggregates_.size()));
  }
  cursor_ = 0;
  return util::Status::OK();
}

util::Result<bool> HashAggregateOp::NextImpl(Row* out) {
  if (cursor_ >= groups_.size()) return false;
  auto& [key, states] = groups_[cursor_++];
  // Each group is emitted exactly once; move the key row out.
  *out = std::move(key);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const Expr& agg = *aggregates_[a].expr;
    const AggState& st = states[a];
    if (agg.function == "COUNT") {
      out->push_back(Value::Int64(agg.children.empty() ? st.count
                                                       : st.non_null));
    } else if (agg.function == "SUM") {
      if (st.non_null == 0) {
        out->push_back(Value::Null());
      } else if (st.sum_is_int) {
        out->push_back(Value::Int64(static_cast<int64_t>(st.sum)));
      } else {
        out->push_back(Value::Double(st.sum));
      }
    } else if (agg.function == "AVG") {
      out->push_back(st.non_null == 0
                         ? Value::Null()
                         : Value::Double(st.sum /
                                         static_cast<double>(st.non_null)));
    } else if (agg.function == "MIN") {
      out->push_back(st.min);
    } else if (agg.function == "MAX") {
      out->push_back(st.max);
    } else {
      return util::Status::Unimplemented("aggregate " + agg.function);
    }
  }
  return true;
}

std::string HashAggregateOp::Describe() const {
  std::string out = "HashAggregate";
  if (!group_by_.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i) out += ", ";
      out += group_by_[i]->ToString();
    }
  }
  return out;
}

// --------------------------------------------------------------- DistinctOp

DistinctOp::DistinctOp(PhysicalPtr child) : child_(std::move(child)) {
  explain_children_ = {child_.get()};
}

util::Status DistinctOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  schema_ = child_->schema();
  seen_.clear();
  pending_bytes_ = 0;
  return util::Status::OK();
}

util::Result<bool> DistinctOp::NextImpl(Row* out) {
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) {
      DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending_bytes_));
      pending_bytes_ = 0;
      return false;
    }
    std::string key;
    storage::EncodeRow(*out, &key);
    // Memory grows with distinct keys: charge each new key's bytes plus
    // set-node overhead, in chunks like the other materializing operators.
    const int64_t key_bytes =
        static_cast<int64_t>(sizeof(std::string) + key.size()) + 32;
    if (!seen_.insert(std::move(key)).second) continue;
    pending_bytes_ += key_bytes;
    if (pending_bytes_ >= kChargeChunkBytes) {
      DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending_bytes_));
      pending_bytes_ = 0;
    }
    return true;
  }
}

std::string DistinctOp::Describe() const { return "Distinct"; }

// ------------------------------------------------------------------ LimitOp

LimitOp::LimitOp(PhysicalPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  explain_children_ = {child_.get()};
}

util::Status LimitOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  schema_ = child_->schema();
  produced_ = 0;
  return util::Status::OK();
}

util::Result<bool> LimitOp::NextImpl(Row* out) {
  if (produced_ >= limit_) return false;
  DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  ++produced_;
  return true;
}

std::string LimitOp::Describe() const {
  return util::StringPrintf("Limit %lld", (long long)limit_);
}

}  // namespace query
}  // namespace drugtree
