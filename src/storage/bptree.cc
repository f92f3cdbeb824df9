#include "storage/bptree.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace drugtree {
namespace storage {

// Entries are unique under the composite (key, row) order, so the classic
// unique-key algorithms apply even with duplicate keys.
//
// Deletion removes from the leaf without rebalancing (lazy deletion, as in
// several production B-trees): lookups and scans stay correct, and space is
// reclaimed when a node empties completely.

struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Entry> entries;                  // leaf data or separators
  std::vector<std::unique_ptr<Node>> children; // internal: entries.size()+1
  Node* next = nullptr;                        // leaf chain
};

BPlusTree::BPlusTree(int fanout) : fanout_(std::max(4, fanout)) {
  root_ = std::make_unique<Node>();
}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

int BPlusTree::CompareEntry(const Entry& a, const Value& key, RowId row) {
  int c = a.key.Compare(key);
  if (c != 0) return c;
  return a.row < row ? -1 : (a.row > row ? 1 : 0);
}

namespace {

// First index in `entries` whose (key,row) is >= (key,row). Templated so the
// private Entry type is deduced rather than named.
template <typename E>
int LowerBound(const std::vector<E>& entries, const Value& key, RowId row,
               int (*cmp)(const E&, const Value&, RowId)) {
  int lo = 0, hi = static_cast<int>(entries.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (cmp(entries[static_cast<size_t>(mid)], key, row) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void BPlusTree::SplitChild(Node* parent, int index) {
  Node* child = parent->children[static_cast<size_t>(index)].get();
  auto right = std::make_unique<Node>();
  right->leaf = child->leaf;
  int mid = static_cast<int>(child->entries.size()) / 2;

  Entry separator;
  if (child->leaf) {
    // Right keeps [mid, end); the separator is a copy of right's first entry.
    right->entries.assign(child->entries.begin() + mid, child->entries.end());
    child->entries.resize(static_cast<size_t>(mid));
    separator = right->entries.front();
    right->next = child->next;
    child->next = right.get();
  } else {
    // Median moves up; right keeps (mid, end) and the matching children.
    separator = child->entries[static_cast<size_t>(mid)];
    right->entries.assign(child->entries.begin() + mid + 1,
                          child->entries.end());
    for (size_t i = static_cast<size_t>(mid) + 1; i < child->children.size();
         ++i) {
      right->children.push_back(std::move(child->children[i]));
    }
    child->entries.resize(static_cast<size_t>(mid));
    child->children.resize(static_cast<size_t>(mid) + 1);
  }
  parent->entries.insert(parent->entries.begin() + index, std::move(separator));
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(right));
}

util::Status BPlusTree::Insert(const Value& key, RowId row) {
  if (static_cast<int>(root_->entries.size()) >= fanout_) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  Node* node = root_.get();
  while (!node->leaf) {
    // Child to descend into: first separator > (key,row) bounds the child.
    int idx = LowerBound(node->entries, key, row, &CompareEntry);
    if (idx < static_cast<int>(node->entries.size()) &&
        CompareEntry(node->entries[static_cast<size_t>(idx)], key, row) == 0) {
      ++idx;  // equal separator: the pair belongs in the right subtree (B+)
    }
    Node* child = node->children[static_cast<size_t>(idx)].get();
    if (static_cast<int>(child->entries.size()) >= fanout_) {
      SplitChild(node, idx);
      // Re-decide which side of the new separator we go.
      if (CompareEntry(node->entries[static_cast<size_t>(idx)], key, row) <= 0) {
        ++idx;
      }
      child = node->children[static_cast<size_t>(idx)].get();
    }
    node = child;
  }
  int pos = LowerBound(node->entries, key, row, &CompareEntry);
  if (pos < static_cast<int>(node->entries.size()) &&
      CompareEntry(node->entries[static_cast<size_t>(pos)], key, row) == 0) {
    return util::Status::AlreadyExists(util::StringPrintf(
        "duplicate index entry (%s, %lld)", key.ToString().c_str(),
        (long long)row));
  }
  node->entries.insert(node->entries.begin() + pos, Entry{key, row});
  ++size_;
  return util::Status::OK();
}

BPlusTree::Node* BPlusTree::FindLeaf(const Value& key, RowId row) const {
  Node* node = root_.get();
  while (!node->leaf) {
    int idx = LowerBound(node->entries, key, row, &CompareEntry);
    if (idx < static_cast<int>(node->entries.size()) &&
        CompareEntry(node->entries[static_cast<size_t>(idx)], key, row) == 0) {
      ++idx;
    }
    node = node->children[static_cast<size_t>(idx)].get();
  }
  return node;
}

util::Status BPlusTree::Erase(const Value& key, RowId row) {
  Node* leaf = FindLeaf(key, row);
  int pos = LowerBound(leaf->entries, key, row, &CompareEntry);
  if (pos >= static_cast<int>(leaf->entries.size()) ||
      CompareEntry(leaf->entries[static_cast<size_t>(pos)], key, row) != 0) {
    return util::Status::NotFound(util::StringPrintf(
        "index entry (%s, %lld) not found", key.ToString().c_str(),
        (long long)row));
  }
  leaf->entries.erase(leaf->entries.begin() + pos);
  --size_;
  return util::Status::OK();
}

std::vector<RowId> BPlusTree::Find(const Value& key) const {
  return RangeScan(key, true, key, true);
}

template <typename Visit>
void BPlusTree::ForEachInRange(const Value& lo, bool lo_inclusive,
                               const Value& hi, bool hi_inclusive,
                               Visit&& visit) const {
  // Locate the starting leaf. A null `lo` means scan from the leftmost leaf.
  Node* leaf;
  int pos;
  if (lo.is_null()) {
    leaf = root_.get();
    while (!leaf->leaf) leaf = leaf->children.front().get();
    pos = 0;
  } else {
    // Smallest possible row id gets us to the first occurrence of lo.
    leaf = FindLeaf(lo, INT64_MIN);
    pos = LowerBound(leaf->entries, lo, INT64_MIN, &CompareEntry);
  }
  while (leaf != nullptr) {
    for (; pos < static_cast<int>(leaf->entries.size()); ++pos) {
      const Entry& e = leaf->entries[static_cast<size_t>(pos)];
      if (!lo.is_null()) {
        int c = e.key.Compare(lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (!hi.is_null()) {
        int c = e.key.Compare(hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      visit(e.row);
    }
    leaf = leaf->next;
    pos = 0;
  }
}

std::vector<RowId> BPlusTree::RangeScan(const Value& lo, bool lo_inclusive,
                                        const Value& hi,
                                        bool hi_inclusive) const {
  std::vector<RowId> out;
  ForEachInRange(lo, lo_inclusive, hi, hi_inclusive,
                 [&out](RowId row) { out.push_back(row); });
  return out;
}

size_t BPlusTree::RangeCount(const Value& lo, bool lo_inclusive,
                             const Value& hi, bool hi_inclusive) const {
  size_t count = 0;
  ForEachInRange(lo, lo_inclusive, hi, hi_inclusive,
                 [&count](RowId) { ++count; });
  return count;
}

int BPlusTree::Height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

util::Status BPlusTree::CheckInvariants() const {
  // Recursive structural check via explicit stack: within-node ordering,
  // child count, separator bounds, and that the leaf chain yields exactly
  // `size_` entries in globally sorted order.
  struct Item {
    const Node* node;
    const Entry* lo;  // exclusive-ish lower bound (>= for leftmost descent)
    const Entry* hi;  // upper bound
  };
  std::vector<Item> stack = {{root_.get(), nullptr, nullptr}};
  const Node* leftmost_leaf = nullptr;
  while (!stack.empty()) {
    auto [node, lo, hi] = stack.back();
    stack.pop_back();
    for (size_t i = 1; i < node->entries.size(); ++i) {
      if (CompareEntry(node->entries[i - 1], node->entries[i].key,
                       node->entries[i].row) >= 0) {
        return util::Status::Internal("node entries out of order");
      }
    }
    for (const Entry& e : node->entries) {
      if (lo && CompareEntry(*lo, e.key, e.row) > 0) {
        return util::Status::Internal("entry below subtree lower bound");
      }
      if (hi && CompareEntry(*hi, e.key, e.row) <= 0) {
        return util::Status::Internal("entry above subtree upper bound");
      }
    }
    if (node->leaf) {
      if (!node->children.empty()) {
        return util::Status::Internal("leaf has children");
      }
      if (leftmost_leaf == nullptr) leftmost_leaf = node;
    } else {
      if (node->children.size() != node->entries.size() + 1) {
        return util::Status::Internal(util::StringPrintf(
            "internal node has %zu children for %zu separators",
            node->children.size(), node->entries.size()));
      }
      for (size_t i = 0; i < node->children.size(); ++i) {
        const Entry* clo = i == 0 ? lo : &node->entries[i - 1];
        const Entry* chi =
            i == node->entries.size() ? hi : &node->entries[i];
        stack.push_back({node->children[i].get(), clo, chi});
      }
    }
  }
  // Walk down to the true leftmost leaf and follow the chain.
  const Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children.front().get();
  size_t total = 0;
  const Entry* prev = nullptr;
  while (leaf) {
    for (const Entry& e : leaf->entries) {
      if (prev && CompareEntry(*prev, e.key, e.row) >= 0) {
        return util::Status::Internal("leaf chain out of order");
      }
      prev = &e;
      ++total;
    }
    leaf = leaf->next;
  }
  if (total != size_) {
    return util::Status::Internal(util::StringPrintf(
        "leaf chain has %zu entries, expected %zu", total, size_));
  }
  return util::Status::OK();
}

}  // namespace storage
}  // namespace drugtree
