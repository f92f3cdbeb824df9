// The DrugTree overlay: ligand/activity data projected onto the protein
// phylogeny. This materializes
//   * a `tree_nodes` relation carrying the interval encoding (pre, post) so
//     the query engine can run tree predicates as range scans,
//   * an extended `proteins` relation with each leaf's node id and pre
//     number (the TreeBinding target), and
//   * per-node overlay aggregates (activity count, best affinity, distinct
//     ligand estimate) computed bottom-up and updatable incrementally in
//     O(depth) per new measurement.

#ifndef DRUGTREE_CORE_OVERLAY_H_
#define DRUGTREE_CORE_OVERLAY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "phylo/tree.h"
#include "phylo/tree_index.h"
#include "storage/table.h"
#include "util/result.h"

namespace drugtree {
namespace core {

/// Per-node overlay aggregates.
struct NodeAggregate {
  int64_t activity_count = 0;
  double best_affinity_nm = 0.0;  // lowest (strongest); 0 = none
  double sum_log_affinity = 0.0;  // for geometric-mean reporting
};

/// Schema factories.
storage::Schema TreeNodeTableSchema();
storage::Schema OverlayTableSchema();

class Overlay {
 public:
  /// Builds the overlay. `tree` is borrowed and must outlive the overlay;
  /// `index` is read only while building. `proteins` and `activities` are
  /// the mediator's integrated tables; protein accessions must match the
  /// tree's leaf names (unmatched proteins are allowed and get node_id =
  /// NULL).
  static util::Result<std::unique_ptr<Overlay>> Build(
      const phylo::Tree* tree, const phylo::TreeIndex* index,
      const storage::Table& proteins, const storage::Table& activities);

  /// `tree_nodes(node_id, parent_id, name, pre, post, depth, branch_length,
  /// is_leaf, leaf_count)` — B+-tree indexed on pre.
  storage::Table* tree_nodes() { return tree_nodes_.get(); }

  /// `proteins(accession, name, family, organism, seq_len, node_id, pre)` —
  /// the query-facing protein relation (sequence dropped, tree columns
  /// added); hash index on accession, B+-tree on pre.
  storage::Table* proteins() { return proteins_.get(); }

  /// `node_overlay(node_id, pre, post, activity_count, best_affinity_nm,
  /// geo_mean_affinity_nm)` — subtree aggregates, B+-tree on pre.
  /// Materialized once by Build(); the table lives as long as the overlay
  /// (the catalog holds it by pointer). ApplyActivity() does not change
  /// its rows.
  storage::Table* node_overlay() { return overlay_table_.get(); }

  /// Current per-node aggregates (index = NodeId).
  const std::vector<NodeAggregate>& aggregates() const { return aggregates_; }

  /// Annotation vector for the mobile LOD layer: log10(activity_count + 1).
  std::vector<double> AnnotationVector() const;

  /// Applies one new measurement: updates the in-memory aggregates of the
  /// leaf for `accession` and all its ancestors (O(depth)), and with them
  /// AnnotationVector(). Touches neither the relational activities table
  /// (the caller owns that) nor the node_overlay rows. Fails, changing
  /// nothing, where ValidateActivity does.
  util::Status ApplyActivity(const std::string& accession, double affinity_nm);

  /// NotFound if the accession is not on the tree, InvalidArgument unless
  /// the affinity is positive (NaN is not).
  util::Status ValidateActivity(const std::string& accession,
                                double affinity_nm) const;

  /// Node for a protein accession, or kInvalidNode.
  phylo::NodeId NodeForAccession(const std::string& accession) const;

 private:
  explicit Overlay(const phylo::Tree* tree) : tree_(tree) {}

  const phylo::Tree* tree_;
  std::unique_ptr<storage::Table> tree_nodes_;
  std::unique_ptr<storage::Table> proteins_;
  std::unique_ptr<storage::Table> overlay_table_;
  std::vector<NodeAggregate> aggregates_;
  std::unordered_map<std::string, phylo::NodeId> accession_to_node_;
};

}  // namespace core
}  // namespace drugtree

#endif  // DRUGTREE_CORE_OVERLAY_H_
