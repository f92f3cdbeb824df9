#include "query/executor.h"

#include <algorithm>

#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace drugtree {
namespace query {

uint64_t QueryResult::ApproxBytes() const {
  uint64_t bytes = 64;
  for (const auto& c : columns) bytes += c.size();
  for (const auto& row : rows) {
    bytes += 16;
    for (const auto& v : row) {
      bytes += 16;
      if (v.type() == storage::ValueType::kString) bytes += v.AsString().size();
    }
  }
  return bytes;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  size_t shown = std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < rows[r].size() && c < columns.size(); ++c) {
      cells[r].push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], cells[r].back().size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& vals) {
    out += "|";
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string v = c < vals.size() ? vals[c] : "";
      out += " " + v + std::string(widths[c] - v.size(), ' ') + " |";
    }
    out += "\n";
  };
  emit_row(columns);
  out += "|";
  for (size_t c = 0; c < columns.size(); ++c) {
    out += std::string(widths[c] + 2, '-') + "|";
  }
  out += "\n";
  for (const auto& r : cells) emit_row(r);
  if (rows.size() > shown) {
    out += util::StringPrintf("... (%zu more rows)\n", rows.size() - shown);
  }
  return out;
}

util::Result<QueryResult> ExecutePlan(PhysicalOperator* root,
                                      const QueryContext* context,
                                      size_t /*batch_size*/) {
  DT_SPAN("query.execute");
  // Null detaches: a plan that ran before must not keep its last run's
  // context.
  root->SetQueryContext(context);
  DRUGTREE_RETURN_IF_ERROR(root->Open());
  QueryResult result;
  for (const auto& c : root->schema().columns()) {
    result.columns.push_back(c.name);
  }
  // Result-buffer accounting: growth is charged against the query's tracker
  // as rows accumulate (so a runaway result aborts at the hard limit, and
  // its size lands in the peak watermark) and released on exit — the buffer
  // is handed to the caller, whose own tracker node takes over ownership.
  obs::MemoryTracker* tracker = context != nullptr ? context->memory : nullptr;
  struct Charged {
    obs::MemoryTracker* t;
    int64_t n = 0;
    ~Charged() {
      if (t != nullptr && n > 0) t->Release(n);
    }
  } charged{tracker};
  storage::Row row;
  int64_t pending = 0;
  for (;;) {
    DRUGTREE_ASSIGN_OR_RETURN(bool more, root->Next(&row));
    if (!more) break;
    if (tracker != nullptr) {
      pending += 32 + static_cast<int64_t>(row.size()) * 16;
      for (const auto& v : row) {
        if (v.type() == storage::ValueType::kString) {
          pending += static_cast<int64_t>(v.AsString().size());
        }
      }
      if (pending >= 64 * 1024) {
        DRUGTREE_RETURN_IF_ERROR(tracker->TryCharge(pending));
        charged.n += pending;
        pending = 0;
      }
    }
    result.rows.push_back(std::move(row));
  }
  if (tracker != nullptr && pending > 0) {
    DRUGTREE_RETURN_IF_ERROR(tracker->TryCharge(pending));
    charged.n += pending;
  }
  return result;
}

}  // namespace query
}  // namespace drugtree
