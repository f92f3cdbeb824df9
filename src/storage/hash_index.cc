#include "storage/hash_index.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace storage {

util::Status HashIndex::Insert(const Value& key, RowId row) {
  auto& rows = map_[key];
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it != rows.end() && *it == row) {
    return util::Status::AlreadyExists(util::StringPrintf(
        "duplicate hash-index entry (%s, %lld)", key.ToString().c_str(),
        (long long)row));
  }
  rows.insert(it, row);
  ++size_;
  return util::Status::OK();
}

util::Status HashIndex::Erase(const Value& key, RowId row) {
  auto mit = map_.find(key);
  if (mit == map_.end()) {
    return util::Status::NotFound("key not in hash index: " + key.ToString());
  }
  auto& rows = mit->second;
  auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) {
    return util::Status::NotFound(util::StringPrintf(
        "hash-index entry (%s, %lld) not found", key.ToString().c_str(),
        (long long)row));
  }
  rows.erase(it);
  if (rows.empty()) map_.erase(mit);
  --size_;
  return util::Status::OK();
}

std::vector<RowId> HashIndex::Find(const Value& key) const {
  const std::vector<RowId>* rows = Postings(key);
  return rows == nullptr ? std::vector<RowId>() : *rows;
}

const std::vector<RowId>* HashIndex::Postings(const Value& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

}  // namespace storage
}  // namespace drugtree
