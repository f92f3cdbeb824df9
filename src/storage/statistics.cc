#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace drugtree {
namespace storage {

double ColumnStats::EqualitySelectivity(const Value& v) const {
  if (num_rows_ == 0) return 0.0;
  if (v.is_null()) return NullFraction();
  if (num_distinct_ <= 0) return 0.0;
  // Out-of-range constants select nothing.
  if (!min_.is_null() && v.Compare(min_) < 0) return 0.0;
  if (!max_.is_null() && v.Compare(max_) > 0) return 0.0;
  return (1.0 - NullFraction()) / static_cast<double>(num_distinct_);
}

double ColumnStats::RangeSelectivity(const Value& lo, bool lo_inclusive,
                                     const Value& hi,
                                     bool hi_inclusive) const {
  (void)lo_inclusive;
  (void)hi_inclusive;
  if (num_rows_ == 0) return 0.0;
  double non_null = 1.0 - NullFraction();
  if (boundaries_.size() < 2) {
    // No histogram (non-numeric or tiny column): fall back to the classic
    // 1/3 guess scaled by bound tightness.
    double sel = 1.0;
    if (!lo.is_null()) sel *= 0.33;
    if (!hi.is_null()) sel *= 0.33;
    return std::min(non_null, sel);
  }
  auto numeric = [](const Value& v, double fallback) {
    auto r = v.ToNumeric();
    return r.ok() ? *r : fallback;
  };
  double dmin = boundaries_.front();
  double dmax = boundaries_.back();
  double qlo = lo.is_null() ? dmin : numeric(lo, dmin);
  double qhi = hi.is_null() ? dmax : numeric(hi, dmax);
  if (qlo > qhi) return 0.0;
  qlo = std::max(qlo, dmin);
  qhi = std::min(qhi, dmax);
  if (qlo > dmax || qhi < dmin) return 0.0;
  // Fraction of buckets covered, with linear interpolation at the edges.
  size_t nbuckets = boundaries_.size() - 1;
  double covered = 0.0;
  for (size_t b = 0; b < nbuckets; ++b) {
    double blo = boundaries_[b];
    double bhi = boundaries_[b + 1];
    if (bhi < qlo || blo > qhi) continue;
    double width = bhi - blo;
    if (width <= 0) {
      covered += 1.0;  // degenerate bucket entirely inside the range
      continue;
    }
    double overlap = std::min(bhi, qhi) - std::max(blo, qlo);
    covered += std::clamp(overlap / width, 0.0, 1.0);
  }
  return std::clamp(covered / static_cast<double>(nbuckets), 0.0, 1.0) *
         non_null;
}

namespace {

/// Hash and equality of borrowed values, as std::hash<Value> and
/// Value::operator== define them for owned ones.
struct ValuePtrHash {
  size_t operator()(const Value* v) const {
    return static_cast<size_t>(v->Hash());
  }
};
struct ValuePtrEq {
  bool operator()(const Value* a, const Value* b) const {
    return a->Compare(*b) == 0;
  }
};

}  // namespace

util::Result<TableStats> TableStats::Analyze(const Schema& schema,
                                             const std::vector<Row>& rows,
                                             int histogram_buckets) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.size());
  for (const Row& r : rows) ptrs.push_back(&r);
  return Analyze(schema, ptrs, histogram_buckets);
}

util::Result<TableStats> TableStats::Analyze(const Schema& schema,
                                             const std::vector<const Row*>& rows,
                                             int histogram_buckets) {
  if (histogram_buckets < 2) {
    return util::Status::InvalidArgument("histogram_buckets must be >= 2");
  }
  TableStats stats;
  stats.num_rows_ = static_cast<int64_t>(rows.size());
  stats.columns_.resize(schema.NumColumns());

  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    ColumnStats& cs = stats.columns_[c];
    cs.num_rows_ = stats.num_rows_;
    std::unordered_set<const Value*, ValuePtrHash, ValuePtrEq> distinct;
    distinct.reserve(rows.size());
    std::vector<double> numeric_values;
    bool numeric_column = schema.column(c).type == ValueType::kInt64 ||
                          schema.column(c).type == ValueType::kDouble;
    const Value* prev = nullptr;
    for (const Row* row : rows) {
      if (c >= row->size()) {
        return util::Status::InvalidArgument("row narrower than schema");
      }
      const Value& v = (*row)[c];
      if (prev == nullptr || prev->Compare(v) != 0) ++cs.num_runs_;
      prev = &v;
      if (v.is_null()) {
        ++cs.num_nulls_;
        continue;
      }
      distinct.insert(&v);
      if (cs.min_.is_null() || v.Compare(cs.min_) < 0) cs.min_ = v;
      if (cs.max_.is_null() || v.Compare(cs.max_) > 0) cs.max_ = v;
      if (numeric_column) {
        auto num = v.ToNumeric();
        if (num.ok()) numeric_values.push_back(*num);
      }
    }
    cs.num_distinct_ = static_cast<int64_t>(distinct.size());
    if (numeric_column && numeric_values.size() >= 2) {
      std::sort(numeric_values.begin(), numeric_values.end());
      size_t n = numeric_values.size();
      size_t buckets = std::min<size_t>(
          static_cast<size_t>(histogram_buckets), n);
      cs.boundaries_.clear();
      cs.boundaries_.push_back(numeric_values.front());
      for (size_t b = 1; b < buckets; ++b) {
        size_t idx = b * n / buckets;
        cs.boundaries_.push_back(numeric_values[idx]);
      }
      cs.boundaries_.push_back(numeric_values.back());
    }
  }
  return stats;
}

}  // namespace storage
}  // namespace drugtree
