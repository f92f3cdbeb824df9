#include "storage/table.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace storage {

util::Result<RowId> Table::Insert(Row row) {
  DRUGTREE_RETURN_IF_ERROR(schema_.CheckRow(row));
  RowId id = static_cast<RowId>(rows_.size());
  // Maintain indexes before committing the row so a failure leaves the table
  // unchanged (index inserts can only fail on duplicates, which cannot
  // happen for a fresh row id; DT-internal invariant).
  for (auto& [col, index] : btree_indexes_) {
    auto ci = schema_.IndexOf(col);
    DRUGTREE_RETURN_IF_ERROR(index->Insert(row[*ci], id));
  }
  for (auto& [col, index] : hash_indexes_) {
    auto ci = schema_.IndexOf(col);
    DRUGTREE_RETURN_IF_ERROR(index->Insert(row[*ci], id));
  }
  rows_.push_back(std::move(row));
  ++live_rows_;
  ++version_;  // invalidates the encoded snapshot and stats freshness
  return id;
}

util::Result<Row> Table::FetchRow(RowId id) const {
  if (!ValidRowId(id)) {
    return util::Status::OutOfRange(
        util::StringPrintf("row id %lld out of range", (long long)id));
  }
  if (IsDeleted(id)) {
    return util::Status::NotFound(
        util::StringPrintf("row %lld was deleted", (long long)id));
  }
  return rows_[static_cast<size_t>(id)];
}

util::Status Table::Delete(RowId id) {
  if (!ValidRowId(id)) {
    return util::Status::OutOfRange(
        util::StringPrintf("row id %lld out of range", (long long)id));
  }
  if (IsDeleted(id)) {
    return util::Status::NotFound(
        util::StringPrintf("row %lld already deleted", (long long)id));
  }
  const Row& row = rows_[static_cast<size_t>(id)];
  for (auto& [col, index] : btree_indexes_) {
    auto ci = schema_.IndexOf(col);
    DRUGTREE_RETURN_IF_ERROR(index->Erase(row[*ci], id));
  }
  for (auto& [col, index] : hash_indexes_) {
    auto ci = schema_.IndexOf(col);
    DRUGTREE_RETURN_IF_ERROR(index->Erase(row[*ci], id));
  }
  rows_[static_cast<size_t>(id)].clear();
  --live_rows_;
  ++version_;  // invalidates the encoded snapshot and stats freshness
  last_delete_version_ = version_;
  // The fold state points into the row just cleared.
  stats_acc_.reset();
  appender_.reset();
  return util::Status::OK();
}

util::Status Table::CreateIndex(const std::string& column, IndexKind kind) {
  DRUGTREE_ASSIGN_OR_RETURN(size_t ci, schema_.IndexOf(column));
  if (kind == IndexKind::kBTree) {
    if (btree_indexes_.count(column)) {
      return util::Status::AlreadyExists("B+-tree index exists on " + column);
    }
    auto index = std::make_unique<BPlusTree>();
    for (size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].empty()) continue;
      DRUGTREE_RETURN_IF_ERROR(
          index->Insert(rows_[r][ci], static_cast<RowId>(r)));
    }
    btree_indexes_[column] = std::move(index);
  } else {
    if (hash_indexes_.count(column)) {
      return util::Status::AlreadyExists("hash index exists on " + column);
    }
    auto index = std::make_unique<HashIndex>();
    for (size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].empty()) continue;
      DRUGTREE_RETURN_IF_ERROR(
          index->Insert(rows_[r][ci], static_cast<RowId>(r)));
    }
    hash_indexes_[column] = std::move(index);
  }
  ++meta_version_;  // a new access path: plans priced without it are stale
  return util::Status::OK();
}

const BPlusTree* Table::GetBTreeIndex(const std::string& column) const {
  auto it = btree_indexes_.find(column);
  return it == btree_indexes_.end() ? nullptr : it->second.get();
}

const HashIndex* Table::GetHashIndex(const std::string& column) const {
  auto it = hash_indexes_.find(column);
  return it == hash_indexes_.end() ? nullptr : it->second.get();
}

bool Table::HasIndex(const std::string& column) const {
  return btree_indexes_.count(column) > 0 || hash_indexes_.count(column) > 0;
}

util::Result<std::vector<RowId>> Table::IndexLookup(const std::string& column,
                                                    const Value& v) const {
  if (const HashIndex* h = GetHashIndex(column)) return h->Find(v);
  if (const BPlusTree* b = GetBTreeIndex(column)) return b->Find(v);
  return util::Status::NotFound("no index on column " + column);
}

util::Result<std::vector<RowId>> Table::IndexRange(
    const std::string& column, const Value& lo, bool lo_inclusive,
    const Value& hi, bool hi_inclusive) const {
  const BPlusTree* b = GetBTreeIndex(column);
  if (b == nullptr) {
    return util::Status::NotFound("no B+-tree index on column " + column);
  }
  return b->RangeScan(lo, lo_inclusive, hi, hi_inclusive);
}

util::Status Table::Analyze() {
  DRUGTREE_ASSIGN_OR_RETURN(TableStats stats,
                            TableStats::Analyze(schema_, LiveRowPointers()));
  stats_ = std::make_unique<TableStats>(std::move(stats));
  stats_acc_.reset();
  stats_version_ = version_;
  ++meta_version_;  // cost estimates derived from stats are now stale
  return util::Status::OK();
}

util::Status Table::RefreshStats() {
  if (!OnlyInsertsSince(stats_version_)) return Analyze();
  if (stats_acc_ == nullptr) {
    stats_acc_ = std::make_unique<StatsAccumulator>(schema_);
    DRUGTREE_RETURN_IF_ERROR(stats_acc_->Add(LiveRowPointers()));
  } else {
    DRUGTREE_RETURN_IF_ERROR(stats_acc_->Add(RowsInsertedSince(stats_version_)));
  }
  if (!stats_acc_->foldable()) return Analyze();
  stats_ = std::make_unique<TableStats>(stats_acc_->Stats());
  stats_version_ = version_;
  ++meta_version_;  // as Analyze(): the cost estimates moved
  return util::Status::OK();
}

util::Status Table::BuildEncodedSegments(size_t segment_rows) {
  if (segment_rows == 0) {
    return util::Status::InvalidArgument("segment_rows must be > 0");
  }
  // A fresh snapshot of the same segment size is exactly what a rebuild
  // would produce: keep it, and keep the plans priced on it. Its stats are
  // fresh too, since no mutation followed the build that refreshed them.
  if (const EncodedTableSnapshot* snap = encoded();
      snap != nullptr && snap->segment_rows == segment_rows) {
    return util::Status::OK();
  }
  // Refresh stats that any Insert or Delete has made stale on the way.
  // Never-analyzed tables stay that way.
  if (stats_ != nullptr && !stats_fresh()) {
    DRUGTREE_RETURN_IF_ERROR(RefreshStats());
  }
  if (encoded_ != nullptr && encoded_->segment_rows == segment_rows &&
      OnlyInsertsSince(encoded_->built_version)) {
    std::vector<const Row*> appended =
        RowsInsertedSince(encoded_->built_version);
    if (appender_ == nullptr) {
      // The live rows of the last segment: the ones just before the
      // appended rows.
      std::vector<const Row*> last_rows;
      const size_t want =
          encoded_->segments.empty() ? 0 : encoded_->segments.back().num_rows;
      for (size_t r = rows_.size() - appended.size();
           r-- > 0 && last_rows.size() < want;) {
        if (!rows_[r].empty()) last_rows.push_back(&rows_[r]);
      }
      std::reverse(last_rows.begin(), last_rows.end());
      appender_ = std::make_unique<SnapshotAppender>(*encoded_, last_rows);
    }
    appender_->Append(encoded_.get(), appended);
  } else {
    encoded_ = std::make_unique<EncodedTableSnapshot>(BuildEncodedTableSnapshot(
        schema_.NumColumns(), LiveRowPointers(), segment_rows));
    appender_.reset();
  }
  encoded_->built_version = version_;
  ++meta_version_;  // scan access paths (and their costs) changed
  return util::Status::OK();
}

uint64_t Table::ApproxScanFootprintBytes() const {
  if (const EncodedTableSnapshot* snap = encoded()) {
    return snap->encoded_bytes;
  }
  // Plain estimate, mirroring the executor's per-row accounting: vector
  // header + inline Value slots + string payloads.
  uint64_t bytes = 0;
  for (const Row& r : rows_) {
    if (r.empty()) continue;
    bytes += sizeof(Row) + r.size() * sizeof(Value);
    for (const Value& v : r) {
      if (v.type() == ValueType::kString) bytes += v.AsString().size();
    }
  }
  return bytes;
}

std::vector<const Row*> Table::LiveRowPointers() const {
  std::vector<const Row*> out;
  out.reserve(static_cast<size_t>(live_rows_));
  for (const Row& r : rows_) {
    if (!r.empty()) out.push_back(&r);
  }
  return out;
}

std::vector<const Row*> Table::RowsInsertedSince(uint64_t since) const {
  std::vector<const Row*> out;
  out.reserve(static_cast<size_t>(version_ - since));
  for (size_t r = rows_.size() - static_cast<size_t>(version_ - since);
       r < rows_.size(); ++r) {
    out.push_back(&rows_[r]);
  }
  return out;
}

std::vector<RowId> Table::LiveRows() const {
  std::vector<RowId> out;
  out.reserve(static_cast<size_t>(live_rows_));
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].empty()) out.push_back(static_cast<RowId>(r));
  }
  return out;
}

}  // namespace storage
}  // namespace drugtree
