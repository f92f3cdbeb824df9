#include "obs/cost_calibrator.h"

#include <algorithm>

#include "util/string_util.h"

namespace drugtree {
namespace obs {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double Clamp(double v, double fallback) {
  const double lo = fallback / CostCalibrator::kClampFactor;
  const double hi = fallback * CostCalibrator::kClampFactor;
  return std::clamp(v, lo, hi);
}

}  // namespace

int CostCalibrator::Classify(const std::string& label) {
  if (StartsWith(label, "SeqScan")) {
    return label.find(" [encoded: ") != std::string::npos ? kEncodedScan
                                                          : kSeqScan;
  }
  // An index nested-loop join's own time is its probes and fetches, which
  // the planner prices per fetched row with index_row, like an index scan.
  if (StartsWith(label, "IndexScan") ||
      StartsWith(label, "IndexNestedLoopJoin")) {
    return kIndexScan;
  }
  if (StartsWith(label, "HashJoin")) return kHashJoin;
  if (StartsWith(label, "NestedLoopJoin")) return kNestedLoop;
  return -1;
}

void CostCalibrator::WalkLocked(const ExplainNode& node) {
  int64_t child_micros = 0;
  for (const ExplainNode& c : node.children) {
    child_micros += c.elapsed_micros;
    WalkLocked(c);
  }
  int kind = Classify(node.label);
  if (kind < 0) return;
  // Exclusive time: ExplainNode elapsed is inclusive of children
  // (Postgres-style), so subtract them out to attribute the operator alone.
  int64_t exclusive = node.elapsed_micros - child_micros;
  if (exclusive <= 0 || node.rows_out <= 0) return;  // virtual clock / empty
  double per_row = static_cast<double>(exclusive) /
                   static_cast<double>(node.rows_out);
  Ewma& e = ewma_[kind];
  if (!e.seeded) {
    e.value = per_row;
    e.seeded = true;
  } else {
    e.value = (1.0 - kAlpha) * e.value + kAlpha * per_row;
  }
  ++observations_;
}

void CostCalibrator::RecomputeLocked() {
  // The plain sequential scan defines the unit; until one has been
  // observed every coefficient stays at its default.
  if (!ewma_[kSeqScan].seeded || ewma_[kSeqScan].value <= 0.0) return;
  const double unit = ewma_[kSeqScan].value;
  const CalibratedCosts defaults;
  CalibratedCosts next = costs_;
  if (ewma_[kIndexScan].seeded) {
    next.index_row = Clamp(ewma_[kIndexScan].value / unit, defaults.index_row);
  }
  if (ewma_[kHashJoin].seeded) {
    next.hash_probe_row =
        Clamp(ewma_[kHashJoin].value / unit, defaults.hash_probe_row);
    // Build cost has no separate observation (build happens inside the same
    // operator's Open); scale it with the probe-side drift.
    next.hash_build_row =
        Clamp(defaults.hash_build_row *
                  (next.hash_probe_row / defaults.hash_probe_row),
              defaults.hash_build_row);
  }
  if (ewma_[kNestedLoop].seeded) {
    next.nested_loop_row =
        Clamp(ewma_[kNestedLoop].value / unit, defaults.nested_loop_row);
  }
  if (ewma_[kEncodedScan].seeded) {
    next.encoded_scan_discount = Clamp(ewma_[kEncodedScan].value / unit,
                                       defaults.encoded_scan_discount);
  }
  const bool changed = next.index_row != costs_.index_row ||
                       next.hash_probe_row != costs_.hash_probe_row ||
                       next.hash_build_row != costs_.hash_build_row ||
                       next.nested_loop_row != costs_.nested_loop_row ||
                       next.encoded_scan_discount !=
                           costs_.encoded_scan_discount;
  if (changed) {
    next.version = costs_.version + 1;
    costs_ = next;
    ++effective_updates_;
  }
}

void CostCalibrator::Observe(const ExplainNode& root) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t before = observations_;
  WalkLocked(root);
  if (observations_ != before) RecomputeLocked();
}

CalibratedCosts CostCalibrator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return costs_;
}

int64_t CostCalibrator::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

int64_t CostCalibrator::effective_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return effective_updates_;
}

std::string CostCalibrator::StatszJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return util::StringPrintf(
      "{\"observations\":%lld,\"updates\":%lld,\"version\":%llu,"
      "\"coefficients\":{\"seq_scan_row\":%.4f,\"index_probe\":%.4f,"
      "\"index_row\":%.4f,\"hash_build_row\":%.4f,\"hash_probe_row\":%.4f,"
      "\"nested_loop_row\":%.4f,\"encoded_scan_discount\":%.4f,"
      "\"subtree_selectivity\":%.4f}}",
      (long long)observations_, (long long)effective_updates_,
      (unsigned long long)costs_.version, costs_.seq_scan_row,
      costs_.index_probe, costs_.index_row, costs_.hash_build_row,
      costs_.hash_probe_row, costs_.nested_loop_row,
      costs_.encoded_scan_discount, costs_.subtree_selectivity);
}

}  // namespace obs
}  // namespace drugtree
