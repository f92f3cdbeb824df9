#include "query/physical.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

namespace {

constexpr uint64_t kKeyHashSeed = 0x9E3779B97F4A7C15ULL;

/// Folds one key value into a row-key hash that started at kKeyHashSeed.
uint64_t HashKeyStep(uint64_t h, const Value& v) {
  return h ^ (v.Hash() + kKeyHashSeed + (h << 6) + (h >> 2));
}

/// `expr`'s value on `row`, without a temporary Result<Value>: the row's
/// own Value for a bound column reference, else `expr` evaluated into
/// `*scratch`. Returns null, with the error in `*status`, when evaluation
/// fails.
const Value* ReadOperand(const Expr& expr, const Row& row,
                         const EvalContext& ctx, Value* scratch,
                         util::Status* status) {
  if (expr.kind == ExprKind::kColumnRef && expr.bound_index >= 0 &&
      static_cast<size_t>(expr.bound_index) < row.size()) {
    return &row[static_cast<size_t>(expr.bound_index)];
  }
  util::Result<Value> v = EvalExpr(expr, row, ctx);
  if (!v.ok()) {
    *status = v.status();
    return nullptr;
  }
  *scratch = std::move(*v);
  return scratch;
}

/// Reads a join key in place: `key[k]` points at `exprs[k]`'s value on
/// `row` (see ReadOperand; `scratch[k]` holds a computed one). Returns the
/// key's hash.
util::Result<uint64_t> ReadKey(const std::vector<ExprPtr>& exprs,
                               const Row& row, const EvalContext& ctx,
                               Value* scratch, const Value** key) {
  uint64_t h = kKeyHashSeed;
  util::Status status;
  for (size_t k = 0; k < exprs.size(); ++k) {
    key[k] = ReadOperand(*exprs[k], row, ctx, &scratch[k], &status);
    if (key[k] == nullptr) return status;
    h = HashKeyStep(h, *key[k]);
  }
  return h;
}

bool AnyNull(const Value* const* key, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (key[k]->is_null()) return true;
  }
  return false;
}

/// Resizes *out to end after `at` + |columns| Values and copies the
/// `columns` of `row` there, in order. Copy-assignment reuses the string
/// buffers of the Values *out already holds.
void CopyColumns(const Row& row, const std::vector<size_t>& columns,
                 size_t at, Row* out) {
  out->resize(at + columns.size());
  for (size_t c : columns) (*out)[at++] = row[c];
}

/// Writes `left` followed by `right` into *out.
void ConcatRows(const Row& left, const Row& right, Row* out) {
  out->resize(left.size() + right.size());
  std::copy(right.begin(), right.end(),
            std::copy(left.begin(), left.end(), out->begin()));
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

PhysicalOperator::~PhysicalOperator() { ReleaseCharges(); }

void PhysicalOperator::ReleaseCharges() {
  if (charged_tracker_ != nullptr && charged_bytes_ > 0) {
    charged_tracker_->Release(charged_bytes_);
  }
  charged_tracker_ = nullptr;
  charged_bytes_ = 0;
}

util::Status PhysicalOperator::ChargeOperatorMemory(int64_t bytes) {
  if (bytes <= 0) return util::Status::OK();
  // Stick with the tracker of the first charge: the release returns the
  // whole accumulated total to one node, so mixing trackers across a
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

util::Status PhysicalOperator::BindAndOpen() {
  if (!bound_) {
    DRUGTREE_RETURN_IF_ERROR(BindImpl());
    bound_ = true;
  }
  return OpenImpl();
}

util::Status PhysicalOperator::Open() {
  op_stats_ = OperatorStats();
  if (query_context_ != nullptr) {
    DRUGTREE_RETURN_IF_ERROR(query_context_->Check());
  }
  if (analyze_clock_ == nullptr) return BindAndOpen();
  int64_t start = analyze_clock_->NowMicros();
  util::Status status = BindAndOpen();
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

void PhysicalOperator::Release() {
  ReleaseImpl();
  ReleaseCharges();
  query_context_ = nullptr;
  for (auto* c : explain_children_) c->Release();
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

SeqScanOp::SeqScanOp(const Table* table, std::string alias,
                     std::shared_ptr<const Schema> full_schema,
                     std::vector<size_t> columns, ExprPtr predicate,
                     EvalContext ctx, ExecStats* stats, ParallelContext par)
    : table_(table),
      alias_(std::move(alias)),
      full_schema_(std::move(full_schema)),
      columns_(std::move(columns)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      stats_(stats),
      par_(par) {
  schema_ = full_schema_->Select(columns_);
}

util::Status SeqScanOp::BindImpl() {
  if (predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(predicate_.get(), *full_schema_));
  }
  const storage::Schema& table_schema = table_->schema();
  row_header_bytes_ = static_cast<int64_t>(
      sizeof(Row) + table_schema.NumColumns() * sizeof(Value));
  string_columns_.clear();
  for (size_t i = 0; i < table_schema.NumColumns(); ++i) {
    if (table_schema.column(i).type == ValueType::kString) {
      string_columns_.push_back(i);
    }
  }
  return util::Status::OK();
}

util::Status SeqScanOp::OpenImpl() {
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
    enc_read_ = columns_;
    for (const storage::EncodedPredicate& clause : enc_clauses_) {
      enc_read_.push_back(clause.column);
    }
    std::sort(enc_read_.begin(), enc_read_.end());
    enc_read_.erase(std::unique(enc_read_.begin(), enc_read_.end()),
                    enc_read_.end());
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
      bytes[m] += PlainRowBytes(row);
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
    CopyColumns(table_->row(matches_[mcursor_++]), columns_, 0, out);
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
    const int64_t bytes = PlainRowBytes(row);
    ++stats_->rows_scanned;
    stats_->bytes_scanned += bytes;
    AddBytesScanned(bytes);
    if (predicate_) {
      ++stats_->predicate_evals;
      DRUGTREE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, row, ctx_));
      if (!keep) continue;
    }
    CopyColumns(row, columns_, 0, out);
    return true;
  }
  return false;
}

void SeqScanOp::ReleaseImpl() {
  matches_ = {};
  enc_matches_ = {};
  enc_scratch_ = {};
  enc_clauses_.clear();
  encoded_ = nullptr;
  materialized_ = false;
}

int64_t SeqScanOp::PlainRowBytes(const Row& row) const {
  // ApproxRowBytes(row), read off the schema: a table row has one Value per
  // column, and only string columns hold strings (or NULL).
  int64_t bytes = row_header_bytes_;
  for (size_t i : string_columns_) {
    if (!row[i].is_null()) {
      bytes += static_cast<int64_t>(row[i].AsString().size());
    }
  }
  return bytes;
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
    int64_t bytes = 0;
    for (size_t c : enc_read_) {
      bytes += static_cast<int64_t>(seg.columns[c].EncodedBytes());
    }
    stats_->rows_scanned += static_cast<int64_t>(seg.num_rows);
    stats_->predicate_evals += static_cast<int64_t>(seg.num_rows);
    stats_->bytes_scanned += bytes;
    AddBytesScanned(bytes);
    enc_pos_ = 0;
    storage::FilterSegment(seg, enc_clauses_, &enc_matches_, &enc_scratch_);
  }
  const storage::EncodedSegment& seg = encoded_->segments[enc_seg_ - 1];
  const size_t i = enc_matches_[enc_pos_++];
  out->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = seg.columns[columns_[c]].ValueAt(i);
  }
  return true;
}

std::string SeqScanOp::Describe() const {
  std::string out = "SeqScan " + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  if (predicate_) out += " [filter: " + predicate_->ToString() + "]";
  out += ColumnListLabel(*full_schema_, columns_);
  if (const storage::EncodedTableSnapshot* snap = table_->encoded()) {
    out += " [encoded: " + snap->Summary(table_->schema()) + "]";
  }
  return out;
}

// -------------------------------------------------------------- IndexScanOp

IndexScanOp::IndexScanOp(const Table* table, std::string alias,
                         std::shared_ptr<const Schema> full_schema,
                         std::vector<size_t> columns, std::string column,
                         std::vector<ExprPtr> bounds, bool point,
                         ExprPtr residual, EvalContext ctx, ExecStats* stats)
    : table_(table),
      alias_(std::move(alias)),
      full_schema_(std::move(full_schema)),
      columns_(std::move(columns)),
      column_(std::move(column)),
      bounds_(std::move(bounds)),
      point_(point),
      residual_(std::move(residual)),
      ctx_(ctx),
      stats_(stats) {
  schema_ = full_schema_->Select(columns_);
}

std::optional<ValueRange> IndexScanOp::ReadBounds() const {
  ValueRange range;
  for (const ExprPtr& conjunct : bounds_) {
    ColumnComparison cmp;
    if (!MatchColumnComparison(*conjunct, &cmp)) continue;
    const Value& v = cmp.literal->literal;
    if (v.is_null()) return std::nullopt;
    if (cmp.op == BinaryOp::kEq) {
      range.lo = v;
    } else {
      range.Narrow(cmp.op, v);
    }
  }
  return range;
}

util::Status IndexScanOp::BindImpl() {
  if (residual_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(residual_.get(), *full_schema_));
  }
  return util::Status::OK();
}

util::Status IndexScanOp::OpenImpl() {
  const std::optional<ValueRange> b = ReadBounds();
  if (!b) {
    matches_.clear();
  } else if (point_) {
    DRUGTREE_ASSIGN_OR_RETURN(matches_, table_->IndexLookup(column_, b->lo));
  } else {
    DRUGTREE_ASSIGN_OR_RETURN(
        matches_, table_->IndexRange(column_, b->lo, b->lo_inclusive, b->hi,
                                     b->hi_inclusive));
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
    CopyColumns(row, columns_, 0, out);
    return true;
  }
  return false;
}

void IndexScanOp::ReleaseImpl() { matches_ = {}; }

std::string IndexScanOp::Describe() const {
  std::string out = "IndexScan " + table_->name() + "." + column_;
  const std::optional<ValueRange> b = ReadBounds();
  if (!b) {
    out += " [empty: NULL bound]";
  } else if (point_) {
    out += " = " + b->lo.ToString();
  } else {
    out += util::StringPrintf(
        " in %c%s, %s%c", b->lo_inclusive ? '[' : '(',
        b->lo.is_null() ? "-inf" : b->lo.ToString().c_str(),
        b->hi.is_null() ? "+inf" : b->hi.ToString().c_str(),
        b->hi_inclusive ? ']' : ')');
  }
  if (residual_) out += " [residual: " + residual_->ToString() + "]";
  out += ColumnListLabel(*full_schema_, columns_);
  return out;
}

// ----------------------------------------------------------------- FilterOp

FilterOp::FilterOp(PhysicalPtr child, ExprPtr predicate, EvalContext ctx,
                   ExecStats* stats)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      stats_(stats) {
  schema_ = child_->schema();
  explain_children_ = {child_.get()};
}

util::Status FilterOp::BindImpl() {
  if (predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(predicate_.get(), schema_));
  }
  return util::Status::OK();
}

util::Status FilterOp::OpenImpl() { return child_->Open(); }

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
                     Schema schema, EvalContext ctx)
    : child_(std::move(child)), outputs_(std::move(outputs)), ctx_(ctx) {
  schema_ = std::move(schema);
  explain_children_ = {child_.get()};
}

util::Status ProjectOp::BindImpl() {
  for (auto& o : outputs_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(o.expr.get(), child_->schema()));
  }
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

util::Status ProjectOp::OpenImpl() { return child_->Open(); }

void ProjectOp::ReleaseImpl() { in_row_.clear(); }

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
                                   Schema schema, ExprPtr condition,
                                   EvalContext ctx, ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      ctx_(ctx),
      stats_(stats) {
  schema_ = std::move(schema);
  explain_children_ = {left_.get(), right_.get()};
}

util::Status NestedLoopJoinOp::BindImpl() {
  if (condition_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(condition_.get(), schema_));
  }
  return util::Status::OK();
}

util::Status NestedLoopJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  DRUGTREE_RETURN_IF_ERROR(right_->Open());
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
      ConcatRows(current_left_, right_rows_[right_cursor_++], out);
      if (condition_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*condition_, *out, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
      return true;
    }
    have_left_ = false;
  }
}

void NestedLoopJoinOp::ReleaseImpl() {
  right_rows_ = {};
  current_left_.clear();
  have_left_ = false;
}

std::string NestedLoopJoinOp::Describe() const {
  return "NestedLoopJoin" +
         (condition_ ? " ON " + condition_->ToString() : std::string(" (cross)"));
}

// --------------------------------------------------------------- HashJoinOp

HashJoinOp::HashJoinOp(PhysicalPtr left, PhysicalPtr right, Schema schema,
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
  schema_ = std::move(schema);
  explain_children_ = {left_.get(), right_.get()};
}

util::Status HashJoinOp::BindImpl() {
  // Left keys to the left schema, right keys to the right schema, residual
  // to the joined schema.
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
  return util::Status::OK();
}

util::Status HashJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  DRUGTREE_RETURN_IF_ERROR(right_->Open());
  const size_t num_keys = key_pairs_.size();
  current_key_.assign(num_keys, nullptr);
  key_scratch_.assign(num_keys, Value());

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
      std::vector<Value> scratch(num_keys);
      std::vector<const Value*> key(num_keys);
      const size_t begin = m * morsel;
      const size_t end = std::min(n, begin + morsel);
      for (size_t i = begin; i < end; ++i) {
        auto h = ReadKey(right_keys_, right_rows_[i], ctx_, scratch.data(),
                         key.data());
        if (!h.ok()) {
          errors[m] = h.status();
          return;
        }
        // NULL keys never join.
        valid[i] = AnyNull(key.data(), num_keys) ? 0 : 1;
        hashes[i] = *h;
      }
    });
    for (const auto& s : errors) {
      if (!s.ok()) return s;
    }
    MorselCounter()->Add(static_cast<int64_t>(num_morsels));
    ParallelRowsCounter()->Add(static_cast<int64_t>(n));
  } else {
    // The probe's key buffers are free until the first Next().
    for (size_t i = 0; i < n; ++i) {
      DRUGTREE_ASSIGN_OR_RETURN(
          hashes[i], ReadKey(right_keys_, right_rows_[i], ctx_,
                             key_scratch_.data(), current_key_.data()));
      // NULL keys never join.
      valid[i] = AnyNull(current_key_.data(), num_keys) ? 0 : 1;
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
      DRUGTREE_ASSIGN_OR_RETURN(
          uint64_t h, ReadKey(left_keys_, current_left_, ctx_,
                              key_scratch_.data(), current_key_.data()));
      if (AnyNull(current_key_.data(), current_key_.size())) continue;
      auto it = hash_table_.find(h);
      probe_list_ = it == hash_table_.end() ? nullptr : &it->second;
      probe_pos_ = 0;
      have_left_ = true;
    }
    while (probe_list_ != nullptr && probe_pos_ < probe_list_->size()) {
      const Row& r = right_rows_[(*probe_list_)[probe_pos_++]];
      // Verify key equality (hash collisions) in place. The build phase
      // already read every build key without error.
      bool equal = true;
      util::Status status;
      for (size_t k = 0; equal && k < right_keys_.size(); ++k) {
        const Value* v =
            ReadOperand(*right_keys_[k], r, ctx_, &probe_scratch_, &status);
        if (v == nullptr) return status;
        equal = *v == *current_key_[k];
      }
      if (!equal) continue;
      ConcatRows(current_left_, r, out);
      if (residual_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*residual_, *out, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
      return true;
    }
    have_left_ = false;
  }
}

void HashJoinOp::ReleaseImpl() {
  right_rows_ = {};
  hash_table_ = {};
  current_left_.clear();
  current_key_.clear();
  key_scratch_.clear();
  probe_scratch_ = Value();
  have_left_ = false;
  probe_list_ = nullptr;
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
    std::shared_ptr<const Schema> inner_schema,
    std::vector<size_t> inner_columns, Schema schema,
    std::string index_column, ExprPtr outer_key, ExprPtr inner_predicate,
    ExprPtr residual, EvalContext ctx, ExecStats* stats)
    : left_(std::move(left)),
      table_(table),
      alias_(std::move(alias)),
      inner_schema_(std::move(inner_schema)),
      inner_columns_(std::move(inner_columns)),
      index_column_(std::move(index_column)),
      outer_key_(std::move(outer_key)),
      inner_predicate_(std::move(inner_predicate)),
      residual_(std::move(residual)),
      ctx_(ctx),
      stats_(stats) {
  schema_ = std::move(schema);
  explain_children_ = {left_.get()};
}

util::Status IndexNestedLoopJoinOp::BindImpl() {
  DRUGTREE_RETURN_IF_ERROR(BindExpr(outer_key_.get(), left_->schema()));
  if (inner_predicate_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(inner_predicate_.get(), *inner_schema_));
  }
  if (residual_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(residual_.get(), schema_));
  }
  return util::Status::OK();
}

util::Status IndexNestedLoopJoinOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(left_->Open());
  index_ = table_->GetHashIndex(index_column_);
  if (index_ == nullptr) {
    return util::Status::Internal("no hash index on " + table_->name() + "." +
                                  index_column_);
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
      CopyColumns(r, inner_columns_, current_left_.size(), out);
      std::copy(current_left_.begin(), current_left_.end(), out->begin());
      if (residual_) {
        ++stats_->predicate_evals;
        DRUGTREE_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*residual_, *out, ctx_));
        if (!keep) continue;
      }
      ++stats_->rows_joined;
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

void IndexNestedLoopJoinOp::ReleaseImpl() {
  current_left_.clear();
  postings_ = nullptr;
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
  out += ColumnListLabel(*inner_schema_, inner_columns_);
  return out;
}

// ---------------------------------------------------------------- RowSorter

RowSorter::RowSorter(const std::vector<OrderKey>& keys, EvalContext ctx,
                     int64_t cap)
    : keys_(keys), ctx_(ctx), cap_(cap) {}

Row* RowSorter::next_row() {
  if (free_slot_ == rows_.size()) {
    rows_.emplace_back();
    seq_.push_back(0);
  }
  return &rows_[free_slot_];
}

void RowSorter::Add() {
  const uint64_t seq = added_++;
  if (!heap_) {
    if (cap_ < 0 || order_.size() < static_cast<size_t>(cap_)) {
      // Keep it; keys are evaluated later, in input order, by Finish() or
      // when the heap is built.
      seq_[free_slot_] = seq;
      order_.push_back(free_slot_);
      held_bytes_ += ApproxRowBytes(rows_[free_slot_]);
      peak_bytes_ = std::max(peak_bytes_, held_bytes_);
      free_slot_ = rows_.size();
      return;
    }
    // Row cap + 1: the kept rows become a max-heap, and the slot count is
    // final (cap kept + this one).
    heap_ = true;
    key_values_.resize(rows_.size() * keys_.size());
    for (size_t slot : order_) {
      if (!EvaluateKeys(slot)) return;
    }
    std::make_heap(order_.begin(), order_.end(),
                   [this](size_t a, size_t b) { return Less(a, b); });
  }
  // After a key error the input is only drained: the error is final.
  if (!status_.ok()) return;
  seq_[free_slot_] = seq;
  if (!EvaluateKeys(free_slot_)) return;
  // A row that does not order before the heap top is rejected; so is every
  // row under a cap of 0.
  if (order_.empty() || !Less(free_slot_, order_.front())) return;
  held_bytes_ += ApproxRowBytes(rows_[free_slot_]) -
                 ApproxRowBytes(rows_[order_.front()]);
  peak_bytes_ = std::max(peak_bytes_, held_bytes_);
  auto less = [this](size_t a, size_t b) { return Less(a, b); };
  std::pop_heap(order_.begin(), order_.end(), less);
  std::swap(order_.back(), free_slot_);  // the evicted slot is reused
  std::push_heap(order_.begin(), order_.end(), less);
}

util::Status RowSorter::Finish() {
  if (!heap_) {
    key_values_.resize(rows_.size() * keys_.size());
    for (size_t slot : order_) {
      if (!EvaluateKeys(slot)) break;
    }
  }
  if (!status_.ok()) return status_;
  // Less is total, so any sort gives one order. A merge sort makes fewer
  // (out-of-line) comparisons than std::sort, and under a NaN key, which
  // compares equal to every value and breaks the total order, it still
  // stays in bounds and keeps a stable sort's order.
  std::stable_sort(order_.begin(), order_.end(),
                   [this](size_t a, size_t b) { return Less(a, b); });
  return util::Status::OK();
}

bool RowSorter::EvaluateKeys(size_t slot) {
  const Row& row = rows_[slot];
  Value* out = &key_values_[slot * keys_.size()];
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Value* v =
        ReadOperand(*keys_[k].expr, row, ctx_, &out[k], &status_);
    if (v == nullptr) return false;
    if (v != &out[k]) out[k] = *v;
  }
  return true;
}

bool RowSorter::Less(size_t a, size_t b) const {
  const size_t n = keys_.size();
  const Value* ka = &key_values_[a * n];
  const Value* kb = &key_values_[b * n];
  for (size_t k = 0; k < n; ++k) {
    const int c = ka[k].Compare(kb[k]);
    if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
  }
  return seq_[a] < seq_[b];
}

// ------------------------------------------------------------------- SortOp

SortOp::SortOp(PhysicalPtr child, std::vector<OrderKey> keys, EvalContext ctx,
               int64_t cap)
    : child_(std::move(child)), keys_(std::move(keys)), ctx_(ctx), cap_(cap) {
  schema_ = child_->schema();
  explain_children_ = {child_.get()};
}

util::Status SortOp::BindImpl() {
  for (auto& k : keys_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(k.expr.get(), schema_));
  }
  return util::Status::OK();
}

util::Status SortOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  sorter_ = std::make_unique<RowSorter>(keys_, ctx_, cap_);
  // Charge the high-water mark of the rows held, in chunks: the whole
  // input without a cap, at most cap rows with one.
  int64_t charged = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(sorter_->next_row()));
    if (!more) break;
    sorter_->Add();
    if (sorter_->peak_bytes() - charged >= kChargeChunkBytes) {
      DRUGTREE_RETURN_IF_ERROR(
          ChargeOperatorMemory(sorter_->peak_bytes() - charged));
      charged = sorter_->peak_bytes();
    }
  }
  DRUGTREE_RETURN_IF_ERROR(
      ChargeOperatorMemory(sorter_->peak_bytes() - charged));
  DRUGTREE_RETURN_IF_ERROR(sorter_->Finish());
  cursor_ = 0;
  return util::Status::OK();
}

util::Result<bool> SortOp::NextImpl(Row* out) {
  if (cursor_ >= sorter_->size()) return false;
  // Each sorted row is handed out exactly once; move, don't copy.
  *out = std::move(sorter_->row(cursor_++));
  return true;
}

void SortOp::ReleaseImpl() { sorter_.reset(); }

std::string SortOp::Describe() const {
  std::string out = "Sort ";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) out += ", ";
    out += keys_[i].expr->ToString();
    if (!keys_[i].ascending) out += " DESC";
  }
  if (cap_ >= 0) out += util::StringPrintf(" [top %lld]", (long long)cap_);
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

util::Status HashAggregateOp::BindImpl() {
  for (auto& g : group_by_) {
    DRUGTREE_RETURN_IF_ERROR(BindExpr(g.get(), child_->schema()));
  }
  functions_.clear();
  for (auto& a : aggregates_) {
    // Bind the aggregate's argument (if any) against the child schema.
    for (auto& arg : a.expr->children) {
      DRUGTREE_RETURN_IF_ERROR(BindExpr(arg.get(), child_->schema()));
    }
    const std::string& f = a.expr->function;
    functions_.push_back(f == "COUNT" ? AggFn::kCount
                         : f == "SUM" ? AggFn::kSum
                         : f == "AVG" ? AggFn::kAvg
                         : f == "MIN" ? AggFn::kMin
                         : f == "MAX" ? AggFn::kMax
                                      : AggFn::kUnknown);
  }
  return util::Status::OK();
}

util::Status HashAggregateOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
  // Group-by values and aggregate arguments are read in place when they
  // are bare column references, else evaluated into reused scratch Values.
  // A group's key is copied out of the input row only when it starts the
  // group.
  const size_t num_keys = group_by_.size();
  std::vector<const Value*> key(num_keys);
  std::vector<Value> key_scratch(num_keys);
  Value arg_scratch;
  util::Status status;
  std::unordered_map<uint64_t, std::vector<size_t>> key_to_groups;
  groups_.clear();
  Row in;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    uint64_t h = kKeyHashSeed;
    for (size_t g = 0; g < num_keys; ++g) {
      key[g] = ReadOperand(*group_by_[g], in, ctx_, &key_scratch[g], &status);
      if (key[g] == nullptr) return status;
      h = HashKeyStep(h, *key[g]);
    }
    size_t group_idx = SIZE_MAX;
    auto it = key_to_groups.find(h);
    if (it != key_to_groups.end()) {
      for (size_t gi : it->second) {
        const Row& group_key = groups_[gi].first;
        size_t g = 0;
        while (g < num_keys && group_key[g] == *key[g]) ++g;
        if (g == num_keys) {
          group_idx = gi;
          break;
        }
      }
    }
    if (group_idx == SIZE_MAX) {
      group_idx = groups_.size();
      Row group_key;
      group_key.reserve(num_keys);
      for (const Value* v : key) group_key.push_back(*v);
      // Memory grows with group cardinality, not input rows: charge per
      // new group (key bytes + aggregate states + index-entry overhead).
      pending += ApproxRowBytes(group_key) +
                 static_cast<int64_t>(aggregates_.size() * sizeof(AggState)) +
                 48;
      if (pending >= kChargeChunkBytes) {
        DRUGTREE_RETURN_IF_ERROR(ChargeOperatorMemory(pending));
        pending = 0;
      }
      groups_.emplace_back(std::move(group_key),
                           std::vector<AggState>(aggregates_.size()));
      key_to_groups[h].push_back(group_idx);
    }
    auto& states = groups_[group_idx].second;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      const Expr& agg = *aggregates_[a].expr;
      if (agg.children.empty()) continue;  // COUNT(*)
      const Value* v =
          ReadOperand(*agg.children[0], in, ctx_, &arg_scratch, &status);
      if (v == nullptr) return status;
      if (v->is_null()) continue;
      ++st.non_null;
      switch (functions_[a]) {
        case AggFn::kSum:
        case AggFn::kAvg:
          if (v->type() == ValueType::kInt64) {
            st.sum += static_cast<double>(v->AsInt64());
          } else if (v->type() == ValueType::kDouble) {
            st.sum += v->AsDouble();
            st.sum_is_int = false;
          }
          break;
        case AggFn::kMin:
          if (st.min.is_null() || v->Compare(st.min) < 0) st.min = *v;
          break;
        case AggFn::kMax:
          if (st.max.is_null() || v->Compare(st.max) > 0) st.max = *v;
          break;
        default:
          break;
      }
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
    switch (functions_[a]) {
      case AggFn::kCount:
        out->push_back(Value::Int64(agg.children.empty() ? st.count
                                                         : st.non_null));
        break;
      case AggFn::kSum:
        if (st.non_null == 0) {
          out->push_back(Value::Null());
        } else if (st.sum_is_int) {
          out->push_back(Value::Int64(static_cast<int64_t>(st.sum)));
        } else {
          out->push_back(Value::Double(st.sum));
        }
        break;
      case AggFn::kAvg:
        out->push_back(st.non_null == 0
                           ? Value::Null()
                           : Value::Double(st.sum /
                                           static_cast<double>(st.non_null)));
        break;
      case AggFn::kMin:
        out->push_back(st.min);
        break;
      case AggFn::kMax:
        out->push_back(st.max);
        break;
      case AggFn::kUnknown:
        return util::Status::Unimplemented("aggregate " + agg.function);
    }
  }
  return true;
}

void HashAggregateOp::ReleaseImpl() { groups_ = {}; }

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
  schema_ = child_->schema();
  explain_children_ = {child_.get()};
}

util::Status DistinctOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
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

void DistinctOp::ReleaseImpl() { seen_ = {}; }

std::string DistinctOp::Describe() const { return "Distinct"; }

// ------------------------------------------------------------------ LimitOp

LimitOp::LimitOp(PhysicalPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  schema_ = child_->schema();
  explain_children_ = {child_.get()};
}

util::Status LimitOp::OpenImpl() {
  DRUGTREE_RETURN_IF_ERROR(child_->Open());
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
