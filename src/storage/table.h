// Table: the in-memory row store the query engine scans, with optional
// secondary indexes (B+-tree or hash) per column and computed statistics.

#ifndef DRUGTREE_STORAGE_TABLE_H_
#define DRUGTREE_STORAGE_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/bptree.h"
#include "storage/encoded_segment.h"
#include "storage/hash_index.h"
#include "storage/schema.h"
#include "storage/statistics.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

enum class IndexKind { kBTree, kHash };

class Table {
 public:
  /// Creates an empty table.
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }

  /// Appends a row (validated against the schema; indexes are maintained).
  /// Returns the new row id.
  util::Result<RowId> Insert(Row row);

  /// Row access. Deleted rows are empty (arity 0); FetchRow returns NotFound
  /// for them.
  const Row& row(RowId id) const { return rows_[static_cast<size_t>(id)]; }
  util::Result<Row> FetchRow(RowId id) const;
  bool IsDeleted(RowId id) const {
    return rows_[static_cast<size_t>(id)].empty();
  }
  bool ValidRowId(RowId id) const {
    return id >= 0 && static_cast<size_t>(id) < rows_.size();
  }

  /// Tombstones a row and removes it from all indexes.
  util::Status Delete(RowId id);

  /// Creates a secondary index on `column`. Fails if one already exists on
  /// that column; existing rows are indexed immediately.
  util::Status CreateIndex(const std::string& column, IndexKind kind);

  /// Index accessors (nullptr when the column has no index of that flavor).
  const BPlusTree* GetBTreeIndex(const std::string& column) const;
  const HashIndex* GetHashIndex(const std::string& column) const;
  bool HasIndex(const std::string& column) const;

  /// Row ids matching col = v via an index (btree or hash). Fails if the
  /// column has no index.
  util::Result<std::vector<RowId>> IndexLookup(const std::string& column,
                                               const Value& v) const;

  /// Row ids with lo <= col <= hi via a B+-tree index (bounds may be NULL for
  /// unbounded). Fails if no B+-tree index exists on the column.
  util::Result<std::vector<RowId>> IndexRange(const std::string& column,
                                              const Value& lo,
                                              bool lo_inclusive,
                                              const Value& hi,
                                              bool hi_inclusive) const;

  /// Recomputes table statistics from every live row (call after bulk
  /// loading).
  util::Status Analyze();

  /// Last computed statistics, or nullptr if Analyze was never run.
  const TableStats* stats() const { return stats_.get(); }

  /// True when stats() reflects the current data — i.e. no Insert/Delete
  /// has happened since they were computed, by Analyze() or by the refresh
  /// inside BuildEncodedSegments(), which folds rows appended since into
  /// them and equals an Analyze() exactly. Consumers needing exact numbers
  /// (the encoding chooser computes its own per-segment profiles and does
  /// NOT depend on this) should check before trusting stats().
  bool stats_fresh() const {
    return stats_ != nullptr && stats_version_ == version_;
  }

  /// Monotonic mutation counter: bumped by every Insert and Delete. Encoded
  /// snapshots and statistics record the version they were built at, which
  /// is how staleness is detected.
  uint64_t version() const { return version_; }

  /// Monotonic counter covering everything a cached *plan* depends on:
  /// bumped by mutations (data + cardinalities change), by Analyze()
  /// (statistics the cost model read change), and by creating an index or
  /// building or dropping encoded segments (the access paths the planner
  /// priced change; a
  /// rebuild that keeps a fresh snapshot changes nothing and bumps
  /// nothing). The plan cache captures it per referenced table and
  /// re-plans on any bump.
  uint64_t plan_version() const { return version_ + meta_version_; }

  /// Default rows per encoded segment.
  static constexpr size_t kDefaultSegmentRows = 4096;

  /// Builds (or rebuilds) the encoded columnar snapshot of the live rows,
  /// refreshing statistics that have gone stale on the way. Scans whose
  /// predicate translates to encoded clauses execute directly on it until
  /// the next mutation invalidates it. A snapshot that is still fresh and
  /// was built with the same `segment_rows` is kept as is.
  ///
  /// When every mutation since the snapshot (or the stats) was built is an
  /// Insert, the appended rows are folded in instead: into the stats
  /// through writer-side accumulators, and into the snapshot's last (open)
  /// segment column by column, new segments after it, sealed segments
  /// untouched. Both the fold and the full path give exactly what a build
  /// from scratch gives, and bump plan_version() alike. A Delete, another
  /// `segment_rows`, a dropped snapshot, an explicit Analyze() and a first
  /// build take the full path.
  util::Status BuildEncodedSegments(size_t segment_rows = kDefaultSegmentRows);

  /// Drops the encoded snapshot; scans revert to the plain row path.
  void DropEncodedSegments() {
    if (encoded_ != nullptr) ++meta_version_;
    encoded_.reset();
    appender_.reset();
  }

  /// The encoded snapshot when one exists AND is current, else nullptr.
  /// Any Insert/Delete after BuildEncodedSegments() makes this return
  /// nullptr (automatic fallback to the exact plain path); call
  /// BuildEncodedSegments() again after bulk mutations to re-enable.
  const EncodedTableSnapshot* encoded() const {
    return encoded_ != nullptr && encoded_->built_version == version_
               ? encoded_.get()
               : nullptr;
  }

  /// Resident bytes of the representation scans read: the encoded snapshot
  /// when fresh, else an estimate of the live rows. The serving layer
  /// charges this against its memory tracker, so compression directly
  /// widens the admission headroom under the high watermark.
  uint64_t ApproxScanFootprintBytes() const;

  /// Live (non-deleted) row ids in insertion order.
  std::vector<RowId> LiveRows() const;

 private:
  /// The live rows in insertion order, borrowed.
  std::vector<const Row*> LiveRowPointers() const;

  /// True when every mutation after version `since` was an Insert.
  bool OnlyInsertsSince(uint64_t since) const {
    return last_delete_version_ <= since;
  }
  /// The rows inserted after version `since`; OnlyInsertsSince(since)
  /// must hold (each Insert appends one row and bumps version_ once).
  std::vector<const Row*> RowsInsertedSince(uint64_t since) const;

  /// Brings stale stats up to date: folds the rows inserted since into the
  /// accumulators (building them on the first fold), or re-analyzes.
  util::Status RefreshStats();

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  int64_t live_rows_ = 0;
  std::map<std::string, std::unique_ptr<BPlusTree>> btree_indexes_;
  std::map<std::string, std::unique_ptr<HashIndex>> hash_indexes_;
  std::unique_ptr<TableStats> stats_;
  std::unique_ptr<EncodedTableSnapshot> encoded_;
  // Writer-side fold state, kept only by tables that have been appended to
  // since their stats or snapshot were built: `stats_acc_` holds exactly
  // the rows stats_ covers, `appender_` profiles encoded_'s open segment.
  // Both point into rows_, so Delete drops them.
  std::unique_ptr<StatsAccumulator> stats_acc_;
  std::unique_ptr<SnapshotAppender> appender_;
  uint64_t version_ = 0;
  uint64_t stats_version_ = 0;
  uint64_t last_delete_version_ = 0;  // version_ right after the last Delete
  /// Non-mutation plan dependencies: Analyze, CreateIndex and encoded
  /// build/drop bumps.
  uint64_t meta_version_ = 0;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_TABLE_H_
