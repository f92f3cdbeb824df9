#include "core/overlay.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace drugtree {
namespace core {

using phylo::NodeId;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

Schema TreeNodeTableSchema() {
  auto s = Schema::Create({
      {"node_id", ValueType::kInt64, false},
      {"parent_id", ValueType::kInt64, true},  // NULL for the root
      {"name", ValueType::kString, true},
      {"pre", ValueType::kInt64, false},
      {"post", ValueType::kInt64, false},
      {"depth", ValueType::kInt64, false},
      {"branch_length", ValueType::kDouble, false},
      {"is_leaf", ValueType::kBool, false},
      {"leaf_count", ValueType::kInt64, false},
  });
  DT_CHECK(s.ok());
  return *s;
}

Schema OverlayTableSchema() {
  auto s = Schema::Create({
      {"node_id", ValueType::kInt64, false},
      {"pre", ValueType::kInt64, false},
      {"post", ValueType::kInt64, false},
      {"activity_count", ValueType::kInt64, false},
      {"best_affinity_nm", ValueType::kDouble, true},
      {"geo_mean_affinity_nm", ValueType::kDouble, true},
  });
  DT_CHECK(s.ok());
  return *s;
}

namespace {

Schema OverlayProteinSchema() {
  auto s = Schema::Create({
      {"accession", ValueType::kString, false},
      {"name", ValueType::kString, false},
      {"family", ValueType::kString, false},
      {"organism", ValueType::kString, false},
      {"seq_len", ValueType::kInt64, false},
      {"node_id", ValueType::kInt64, true},
      {"pre", ValueType::kInt64, true},
  });
  DT_CHECK(s.ok());
  return *s;
}

}  // namespace

util::Result<std::unique_ptr<Overlay>> Overlay::Build(
    const phylo::Tree* tree, const phylo::TreeIndex* index,
    const Table& proteins, const Table& activities) {
  if (tree == nullptr || index == nullptr) {
    return util::Status::InvalidArgument("tree and index must not be null");
  }
  auto overlay = std::unique_ptr<Overlay>(new Overlay(tree));

  // tree_nodes relation.
  overlay->tree_nodes_ =
      std::make_unique<Table>("tree_nodes", TreeNodeTableSchema());
  for (size_t i = 0; i < tree->NumNodes(); ++i) {
    auto id = static_cast<NodeId>(i);
    const phylo::Node& n = tree->node(id);
    storage::Row row = {
        Value::Int64(id),
        n.IsRoot() ? Value::Null() : Value::Int64(n.parent),
        Value::String(n.name),
        Value::Int64(index->Pre(id)),
        Value::Int64(index->Post(id)),
        Value::Int64(index->Depth(id)),
        Value::Double(n.branch_length),
        Value::Bool(n.IsLeaf()),
        Value::Int64(index->SubtreeLeafCount(id)),
    };
    DRUGTREE_RETURN_IF_ERROR(overlay->tree_nodes_->Insert(std::move(row)).status());
  }
  DRUGTREE_RETURN_IF_ERROR(
      overlay->tree_nodes_->CreateIndex("pre", storage::IndexKind::kBTree));
  DRUGTREE_RETURN_IF_ERROR(
      overlay->tree_nodes_->CreateIndex("node_id", storage::IndexKind::kHash));
  DRUGTREE_RETURN_IF_ERROR(overlay->tree_nodes_->Analyze());

  // Leaf name -> node map.
  for (NodeId leaf : tree->Leaves()) {
    const std::string& name = tree->node(leaf).name;
    if (!name.empty()) overlay->accession_to_node_[name] = leaf;
  }

  // Extended proteins relation.
  overlay->proteins_ = std::make_unique<Table>("proteins",
                                               OverlayProteinSchema());
  const Schema& ps = proteins.schema();
  DRUGTREE_ASSIGN_OR_RETURN(size_t acc_col, ps.IndexOf("accession"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t name_col, ps.IndexOf("name"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t fam_col, ps.IndexOf("family"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t org_col, ps.IndexOf("organism"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t len_col, ps.IndexOf("seq_len"));
  for (storage::RowId rid : proteins.LiveRows()) {
    const storage::Row& in = proteins.row(rid);
    const std::string& acc = in[acc_col].AsString();
    auto it = overlay->accession_to_node_.find(acc);
    Value node_v = Value::Null(), pre_v = Value::Null();
    if (it != overlay->accession_to_node_.end()) {
      node_v = Value::Int64(it->second);
      pre_v = Value::Int64(index->Pre(it->second));
    }
    storage::Row row = {in[acc_col], in[name_col],  in[fam_col], in[org_col],
                        in[len_col], std::move(node_v), std::move(pre_v)};
    DRUGTREE_RETURN_IF_ERROR(overlay->proteins_->Insert(std::move(row)).status());
  }
  DRUGTREE_RETURN_IF_ERROR(
      overlay->proteins_->CreateIndex("accession", storage::IndexKind::kHash));
  DRUGTREE_RETURN_IF_ERROR(
      overlay->proteins_->CreateIndex("pre", storage::IndexKind::kBTree));
  DRUGTREE_RETURN_IF_ERROR(overlay->proteins_->Analyze());

  // Bottom-up aggregates from the activities table.
  overlay->aggregates_.assign(tree->NumNodes(), NodeAggregate{});
  const Schema& as = activities.schema();
  DRUGTREE_ASSIGN_OR_RETURN(size_t a_acc, as.IndexOf("accession"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t a_aff, as.IndexOf("affinity_nm"));
  for (storage::RowId rid : activities.LiveRows()) {
    const storage::Row& in = activities.row(rid);
    auto it = overlay->accession_to_node_.find(in[a_acc].AsString());
    if (it == overlay->accession_to_node_.end()) continue;
    double aff = in[a_aff].AsDouble();
    NodeId node = it->second;
    // Charge the whole root path (the incremental structure).
    for (NodeId cur = node;;) {
      NodeAggregate& agg =
          overlay->aggregates_[static_cast<size_t>(cur)];
      ++agg.activity_count;
      agg.sum_log_affinity += std::log(std::max(aff, 1e-9));
      if (agg.best_affinity_nm == 0.0 || aff < agg.best_affinity_nm) {
        agg.best_affinity_nm = aff;
      }
      if (tree->node(cur).IsRoot()) break;
      cur = tree->node(cur).parent;
    }
  }

  // The node_overlay relation, materialized once from the aggregates.
  overlay->overlay_table_ = std::make_unique<Table>("node_overlay",
                                                    OverlayTableSchema());
  for (size_t i = 0; i < overlay->aggregates_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    const NodeAggregate& agg = overlay->aggregates_[i];
    storage::Row row = {
        Value::Int64(id),
        Value::Int64(index->Pre(id)),
        Value::Int64(index->Post(id)),
        Value::Int64(agg.activity_count),
        agg.activity_count ? Value::Double(agg.best_affinity_nm)
                           : Value::Null(),
        agg.activity_count
            ? Value::Double(std::exp(agg.sum_log_affinity /
                                     static_cast<double>(agg.activity_count)))
            : Value::Null(),
    };
    DRUGTREE_RETURN_IF_ERROR(
        overlay->overlay_table_->Insert(std::move(row)).status());
  }
  DRUGTREE_RETURN_IF_ERROR(
      overlay->overlay_table_->CreateIndex("pre", storage::IndexKind::kBTree));
  DRUGTREE_RETURN_IF_ERROR(overlay->overlay_table_->CreateIndex(
      "node_id", storage::IndexKind::kHash));
  DRUGTREE_RETURN_IF_ERROR(overlay->overlay_table_->Analyze());
  return overlay;
}

std::vector<double> Overlay::AnnotationVector() const {
  std::vector<double> out(aggregates_.size(), 0.0);
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    out[i] = std::log10(static_cast<double>(aggregates_[i].activity_count) + 1.0);
  }
  return out;
}

util::Status Overlay::ValidateActivity(const std::string& accession,
                                       double affinity_nm) const {
  if (NodeForAccession(accession) == phylo::kInvalidNode) {
    return util::Status::NotFound("accession not on the tree: " + accession);
  }
  if (!(affinity_nm > 0.0)) {
    return util::Status::InvalidArgument("affinity must be positive");
  }
  return util::Status::OK();
}

util::Status Overlay::ApplyActivity(const std::string& accession,
                                    double affinity_nm) {
  DRUGTREE_RETURN_IF_ERROR(ValidateActivity(accession, affinity_nm));
  for (NodeId cur = NodeForAccession(accession);;) {
    NodeAggregate& agg = aggregates_[static_cast<size_t>(cur)];
    ++agg.activity_count;
    agg.sum_log_affinity += std::log(affinity_nm);
    if (agg.best_affinity_nm == 0.0 || affinity_nm < agg.best_affinity_nm) {
      agg.best_affinity_nm = affinity_nm;
    }
    if (tree_->node(cur).IsRoot()) break;
    cur = tree_->node(cur).parent;
  }
  return util::Status::OK();
}

phylo::NodeId Overlay::NodeForAccession(const std::string& accession) const {
  auto it = accession_to_node_.find(accession);
  return it == accession_to_node_.end() ? phylo::kInvalidNode : it->second;
}

}  // namespace core
}  // namespace drugtree
