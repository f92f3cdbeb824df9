// Test helper: three clades of a DrugTree instance's phylogeny that span the
// planner's cardinality range — the root, a mid-tree clade (about a sixth of
// the leaves) and a clade whose children are all leaves.

#ifndef DRUGTREE_TESTS_CLADES_H_
#define DRUGTREE_TESTS_CLADES_H_

#include <cstdlib>

#include "core/drugtree.h"

namespace drugtree {

struct Clades {
  phylo::NodeId root = phylo::kInvalidNode;
  phylo::NodeId mid = phylo::kInvalidNode;
  phylo::NodeId leaf_parent = phylo::kInvalidNode;
};

inline Clades PickClades(const core::DrugTree& dt) {
  const phylo::Tree& tree = dt.tree();
  const phylo::TreeIndex& index = dt.tree_index();
  Clades c;
  c.root = tree.root();
  const int32_t target = index.SubtreeLeafCount(c.root) / 6;
  tree.PreOrder([&](phylo::NodeId id) {
    if (tree.node(id).IsLeaf() || id == c.root) return;
    const int32_t leaves = index.SubtreeLeafCount(id);
    if (c.mid == phylo::kInvalidNode ||
        std::abs(leaves - target) <
            std::abs(index.SubtreeLeafCount(c.mid) - target)) {
      c.mid = id;
    }
    if (c.leaf_parent == phylo::kInvalidNode &&
        leaves == index.SubtreeSize(id) - 1) {
      c.leaf_parent = id;
    }
  });
  return c;
}

}  // namespace drugtree

#endif  // DRUGTREE_TESTS_CLADES_H_
