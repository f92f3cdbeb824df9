#include "storage/statistics.h"

#include <algorithm>
#include <cmath>

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

/// Buckets of every numeric column's equi-depth histogram.
constexpr size_t kHistogramBuckets = 32;

/// Ascending order of non-NaN doubles, with -0.0 before 0.0: a strict
/// total order, so the sorted numeric values (and the histogram edges read
/// from them) are the same whether they were sorted at once or merged in
/// batch by batch.
bool NumericLess(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

}  // namespace

util::Result<TableStats> TableStats::Analyze(const Schema& schema,
                                             const std::vector<Row>& rows) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.size());
  for (const Row& r : rows) ptrs.push_back(&r);
  return Analyze(schema, ptrs);
}

util::Result<TableStats> TableStats::Analyze(
    const Schema& schema, const std::vector<const Row*>& rows) {
  StatsAccumulator acc(schema);
  DRUGTREE_RETURN_IF_ERROR(acc.Add(rows));
  return acc.Stats();
}

StatsAccumulator::StatsAccumulator(const Schema& schema)
    : columns_(schema.NumColumns()) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].numeric = schema.column(c).type == ValueType::kInt64 ||
                          schema.column(c).type == ValueType::kDouble;
  }
}

util::Status StatsAccumulator::Add(const std::vector<const Row*>& rows) {
  for (const Row* row : rows) {
    if (row->size() < columns_.size()) {
      return util::Status::InvalidArgument("row narrower than schema");
    }
  }
  num_rows_ += static_cast<int64_t>(rows.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    // A first batch sizes the set once; later ones let it grow
    // geometrically rather than rehash on every small batch.
    if (col.distinct.empty()) col.distinct.reserve(rows.size());
    const size_t sorted_before = col.sorted.size();
    for (const Row* row : rows) {
      const Value& v = (*row)[c];
      if (col.last == nullptr || col.last->Compare(v) != 0) ++col.runs;
      col.last = &v;
      if (v.is_null()) {
        ++col.nulls;
        continue;
      }
      col.distinct.insert(&v);
      if (col.min == nullptr || v.Compare(*col.min) < 0) col.min = &v;
      if (col.max == nullptr || v.Compare(*col.max) > 0) col.max = &v;
      if (col.numeric) {
        auto num = v.ToNumeric();
        if (num.ok()) {
          if (std::isnan(*num)) saw_nan_ = true;
          col.sorted.push_back(*num);
        }
      }
    }
    auto mid = col.sorted.begin() + static_cast<ptrdiff_t>(sorted_before);
    std::sort(mid, col.sorted.end(), NumericLess);
    std::inplace_merge(col.sorted.begin(), mid, col.sorted.end(), NumericLess);
  }
  return util::Status::OK();
}

TableStats StatsAccumulator::Stats() const {
  TableStats stats;
  stats.num_rows_ = num_rows_;
  stats.columns_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    ColumnStats& cs = stats.columns_[c];
    cs.num_rows_ = num_rows_;
    cs.num_nulls_ = col.nulls;
    cs.num_distinct_ = static_cast<int64_t>(col.distinct.size());
    cs.num_runs_ = col.runs;
    if (col.min != nullptr) cs.min_ = *col.min;
    if (col.max != nullptr) cs.max_ = *col.max;
    const std::vector<double>& sorted = col.sorted;
    if (col.numeric && sorted.size() >= 2) {
      size_t n = sorted.size();
      size_t buckets = std::min(kHistogramBuckets, n);
      cs.boundaries_.reserve(buckets + 1);
      cs.boundaries_.push_back(sorted.front());
      for (size_t b = 1; b < buckets; ++b) {
        cs.boundaries_.push_back(sorted[b * n / buckets]);
      }
      cs.boundaries_.push_back(sorted.back());
    }
  }
  return stats;
}

}  // namespace storage
}  // namespace drugtree
