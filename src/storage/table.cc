#include "storage/table.h"

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

util::Status Table::Analyze(int histogram_buckets) {
  std::vector<Row> live;
  live.reserve(static_cast<size_t>(live_rows_));
  for (const Row& r : rows_) {
    if (!r.empty()) live.push_back(r);
  }
  DRUGTREE_ASSIGN_OR_RETURN(TableStats stats,
                            TableStats::Analyze(schema_, live,
                                                histogram_buckets));
  stats_ = std::make_unique<TableStats>(std::move(stats));
  stats_version_ = version_;
  ++meta_version_;  // cost estimates derived from stats are now stale
  return util::Status::OK();
}

util::Status Table::BuildEncodedSegments(size_t segment_rows) {
  if (segment_rows == 0) {
    return util::Status::InvalidArgument("segment_rows must be > 0");
  }
  // A rebuild walks every live row anyway, so piggyback a stats refresh
  // when existing stats have gone stale (mutations since the last
  // Analyze — including tombstone-creating deletes, which previously kept
  // being served as fresh). Never-analyzed tables stay that way.
  if (stats_ != nullptr && !stats_fresh()) {
    DRUGTREE_RETURN_IF_ERROR(Analyze());
  }
  std::vector<const Row*> live;
  live.reserve(static_cast<size_t>(live_rows_));
  for (const Row& r : rows_) {
    if (!r.empty()) live.push_back(&r);
  }
  auto snap = std::make_unique<EncodedTableSnapshot>(
      BuildEncodedTableSnapshot(schema_.NumColumns(), live, segment_rows));
  snap->built_version = version_;
  encoded_ = std::move(snap);
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

std::vector<RowId> Table::LiveRows() const {
  std::vector<RowId> out;
  out.reserve(static_cast<size_t>(live_rows_));
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (!rows_[r].empty()) out.push_back(static_cast<RowId>(r));
  }
  return out;
}

util::Result<PageId> Table::SaveTo(BufferPool* pool) const {
  DRUGTREE_ASSIGN_OR_RETURN(HeapFile hf, HeapFile::Create(pool));
  for (const Row& r : rows_) {
    if (r.empty()) continue;
    std::string encoded;
    EncodeRow(r, &encoded);
    DRUGTREE_RETURN_IF_ERROR(hf.Insert(encoded).status());
  }
  DRUGTREE_RETURN_IF_ERROR(pool->FlushAll());
  return hf.directory_page();
}

util::Status Table::LoadFrom(BufferPool* pool, PageId directory_page) {
  DRUGTREE_ASSIGN_OR_RETURN(HeapFile hf, HeapFile::Open(pool, directory_page));
  util::Status insert_status;
  DRUGTREE_RETURN_IF_ERROR(hf.Scan(
      [&](const RecordId&, const std::string& rec) -> util::Status {
        size_t offset = 0;
        DRUGTREE_ASSIGN_OR_RETURN(Row row, DecodeRow(rec, &offset));
        DRUGTREE_RETURN_IF_ERROR(Insert(std::move(row)).status());
        return util::Status::OK();
      }));
  return util::Status::OK();
}

}  // namespace storage
}  // namespace drugtree
