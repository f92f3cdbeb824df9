// Hash index: O(1) point lookups, no range support — the comparison point
// for the B+-tree in experiment E8, and the default index for equality-only
// columns (accession ids, ligand ids).

#ifndef DRUGTREE_STORAGE_HASH_INDEX_H_
#define DRUGTREE_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/bptree.h"
#include "storage/value.h"
#include "util/result.h"

namespace drugtree {
namespace storage {

class HashIndex {
 public:
  HashIndex() = default;

  /// Inserts (key, row); the exact pair must not already exist.
  util::Status Insert(const Value& key, RowId row);

  /// Removes the exact (key, row) pair; NotFound if absent.
  util::Status Erase(const Value& key, RowId row);

  /// All row ids with this key, ascending.
  std::vector<RowId> Find(const Value& key) const;

  /// The posting list of `key` (row ids ascending) without copying it, or
  /// null when the key is absent. Valid until the next Insert/Erase.
  const std::vector<RowId>* Postings(const Value& key) const;

  bool Contains(const Value& key) const { return map_.count(key) > 0; }

  size_t size() const { return size_; }

  /// Number of distinct keys.
  size_t NumKeys() const { return map_.size(); }

 private:
  std::unordered_map<Value, std::vector<RowId>> map_;
  size_t size_ = 0;
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_HASH_INDEX_H_
