// In-memory B+-tree index mapping Value keys to row ids, with duplicate keys
// supported (entries are ordered by (key, row id)).
//
// This is the index behind tree-interval scans: pre-order numbers are Int64
// keys, so a SUBTREE predicate becomes one RangeScan([pre, post]) — the
// poster's "novel mechanism" for removing tree-query lag.

#ifndef DRUGTREE_STORAGE_BPTREE_H_
#define DRUGTREE_STORAGE_BPTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

using RowId = int64_t;

/// B+-tree with configurable fanout. Leaves are chained for range scans.
class BPlusTree {
 public:
  /// `fanout` = max entries per node (>= 4).
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts (key, row). Duplicate keys are allowed; the exact (key, row)
  /// pair must not already exist.
  util::Status Insert(const Value& key, RowId row);

  /// Removes the exact (key, row) pair; NotFound if absent.
  util::Status Erase(const Value& key, RowId row);

  /// All row ids with exactly this key, ascending by row id.
  std::vector<RowId> Find(const Value& key) const;

  /// All (key,row) pairs with lo <= key <= hi, in key order. Null bounds mean
  /// unbounded on that side.
  std::vector<RowId> RangeScan(const Value& lo, bool lo_inclusive,
                               const Value& hi, bool hi_inclusive) const;

  /// Number of entries RangeScan would return, without materializing them.
  size_t RangeCount(const Value& lo, bool lo_inclusive, const Value& hi,
                    bool hi_inclusive) const;

  /// Entry count.
  size_t size() const { return size_; }

  /// Height in levels (1 = just a leaf).
  int Height() const;

  /// Internal-consistency check used by tests: ordering within nodes, key
  /// separators, leaf chain completeness.
  util::Status CheckInvariants() const;

 private:
  struct Node;
  struct Entry {
    Value key;
    RowId row;
  };

  static int CompareEntry(const Entry& a, const Value& key, RowId row);

  Node* FindLeaf(const Value& key, RowId row) const;
  /// Calls `visit(row)` for each entry in the range, in key order.
  template <typename Visit>
  void ForEachInRange(const Value& lo, bool lo_inclusive, const Value& hi,
                      bool hi_inclusive, Visit&& visit) const;
  void SplitChild(Node* parent, int index);

  int fanout_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_BPTREE_H_
