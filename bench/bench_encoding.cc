// E13: compressed columnar segments with direct encoded execution.
//
// A deterministic 256k-row table with one column per encoding sweet spot
// (dict-friendly categories, RLE-friendly sorted runs, FoR-friendly narrow
// ints, incompressible doubles) is scanned at several predicate
// selectivities with encoded segments ON and OFF (interleaved best-of-N).
// Reports per-column compression ratios, bytes scanned, and rows/sec, then
// (ungated) the table's first-build time and its rebuild time after a
// 2-row append.
//
// This is a pass/fail smoke, not a google-benchmark binary. Gates (release
// builds, scripts/tier1.sh):
//   * compression ratio >= 2x on the dict and RLE columns
//   * encoded scan-filter throughput >= 1x plain on the low-cardinality
//     predicates (the workload direct encoded execution is supposed to win)
//
// With DRUGTREE_ENCODED_TRACKED=1 it instead gates the memory tracker's
// overhead on both scan paths: the dict-eq query runs with and without a
// per-query obs::MemoryTracker attached, once over the encoded segments
// and once over the plain rows (segments dropped), and fails if tracking
// costs more than DRUGTREE_TRACKER_BUDGET_PCT percent (default 5) on
// either. Used by scripts/obs_noop_ab.sh as the tracker lane.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/resource_tracker.h"
#include "query/planner.h"
#include "query/query_context.h"
#include "storage/encoded_segment.h"
#include "storage/table.h"

namespace {

using namespace drugtree;

constexpr int kRows = 256 * 1024;
constexpr int kRounds = 5;

/// Predicate sweep: name, SQL, and which gate (if any) it feeds.
struct Probe {
  const char* name;
  const char* sql;
  bool gated;  // encoded must be >= 1x plain here
};

const Probe kProbes[] = {
    // Low-cardinality equality on the dictionary column: one literal
    // translation, then pure code compares. The headline gate.
    {"dict-eq (1/8)",
     "SELECT e.run FROM enc e WHERE e.cat = 'family-3'", true},
    // Run-structured range: whole-run accept/reject.
    {"rle-range (~25%)",
     "SELECT e.cat FROM enc e WHERE e.run < 64", true},
    // Narrow-int range on the FoR column.
    {"for-range (~6%)",
     "SELECT e.narrow FROM enc e WHERE e.narrow < 256", false},
    // Conjunction across encodings.
    {"conj (~3%)",
     "SELECT e.run FROM enc e WHERE e.cat = 'family-3' AND e.run < 64",
     false},
    // Near-zero selectivity: dominated by filter speed, no decode.
    {"dict-miss (0%)",
     "SELECT e.run FROM enc e WHERE e.cat = 'family-none'", false},
};

double RunOnce(query::Planner* planner, const char* sql, size_t* rows_out,
               obs::MemoryTracker* tracker = nullptr) {
  query::PlannerOptions opts;  // optimized defaults
  query::QueryContext context;
  context.memory = tracker;
  auto start = std::chrono::steady_clock::now();
  auto outcome = planner->Run(sql, opts, tracker ? &context : nullptr);
  auto stop = std::chrono::steady_clock::now();
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    std::exit(2);
  }
  *rows_out = outcome->result.rows.size();
  return std::chrono::duration<double>(stop - start).count();
}

/// Row i of the benchmark table.
storage::Row EncRow(int i) {
  return {storage::Value::String("family-" + std::to_string(i % 8)),
          storage::Value::Int64(i / 1024),
          storage::Value::Int64((i * 2654435761LL) % 4096),
          storage::Value::Double(i * 1.0000001)};
}

/// Seconds one BuildEncodedSegments() call takes; exits on failure.
double TimeBuild(storage::Table* table) {
  auto start = std::chrono::steady_clock::now();
  if (!table->BuildEncodedSegments().ok()) std::exit(2);
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  auto schema = storage::Schema::Create({
      {"cat", storage::ValueType::kString, false},    // 8 distinct -> dict
      {"run", storage::ValueType::kInt64, false},     // sorted runs -> rle
      {"narrow", storage::ValueType::kInt64, false},  // range 4096 -> for
      {"score", storage::ValueType::kDouble, false},  // distinct -> plain
  });
  if (!schema.ok()) return 2;
  storage::Table enc("enc", *schema);
  for (int i = 0; i < kRows; ++i) {
    if (!enc.Insert(EncRow(i)).ok()) return 2;
  }
  if (!enc.Analyze().ok()) return 2;
  query::Catalog catalog;
  if (!catalog.Register(&enc).ok()) return 2;
  query::Planner planner(&catalog);

  if (!enc.BuildEncodedSegments().ok()) return 2;
  const storage::EncodedTableSnapshot* snap = enc.encoded();
  if (snap == nullptr) return 2;

  const char* tracked_env = std::getenv("DRUGTREE_ENCODED_TRACKED");
  if (tracked_env != nullptr && std::string(tracked_env) == "1") {
    // Tracker-overhead gate on both scan paths (obs_noop_ab.sh lane).
    double budget_pct = 5.0;
    if (const char* b = std::getenv("DRUGTREE_TRACKER_BUDGET_PCT")) {
      budget_pct = std::atof(b);
    }
    obs::MemoryTracker root("server");
    obs::MemoryTracker* session = root.GetOrCreateChild("interactive")
                                      ->GetOrCreateChild("session-1");
    const char* sql = kProbes[0].sql;
    bool ok = true;
    for (bool encoded : {true, false}) {
      if (encoded) {
        if (!enc.BuildEncodedSegments().ok()) return 2;
      } else {
        enc.DropEncodedSegments();
      }
      double untracked_best = 1e300, tracked_best = 1e300;
      size_t untracked_rows = 0, tracked_rows = 0;
      for (int r = 0; r < kRounds; ++r) {
        untracked_best =
            std::min(untracked_best, RunOnce(&planner, sql, &untracked_rows));
        obs::MemoryTracker query_tracker("query", session);
        tracked_best = std::min(
            tracked_best,
            RunOnce(&planner, sql, &tracked_rows, &query_tracker));
      }
      if (untracked_rows != tracked_rows) {
        std::fprintf(stderr,
                     "tracked/untracked result mismatch: %zu vs %zu rows\n",
                     tracked_rows, untracked_rows);
        return 2;
      }
      double overhead_pct = (tracked_best / untracked_best - 1.0) * 100.0;
      std::printf(
          "%s tracker smoke: dict-eq scan over %d rows (%zu out)\n"
          "  untracked: %8.3f ms\n"
          "  tracked:   %8.3f ms  (peak %lld bytes at root)\n"
          "  overhead: %+.1f%% (budget %.1f%%)\n",
          encoded ? "encoded" : "plain", kRows, tracked_rows,
          untracked_best * 1e3, tracked_best * 1e3, (long long)root.peak(),
          overhead_pct, budget_pct);
      if (overhead_pct > budget_pct) {
        std::fprintf(stderr,
                     "FAIL: %s scan tracker overhead %.1f%% over budget "
                     "%.1f%%\n",
                     encoded ? "encoded" : "plain", overhead_pct, budget_pct);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("OK\n");
    return 0;
  }

  // --- compression report + gate -----------------------------------------
  std::printf("encoding smoke: %d rows, %zu segments, ratio %.2fx\n", kRows,
              snap->segments.size(), snap->CompressionRatio());
  const char* names[] = {"cat", "run", "narrow", "score"};
  double col_ratio[4] = {0, 0, 0, 0};
  for (size_t c = 0; c < 4; ++c) {
    uint64_t enc_bytes = 0, plain_bytes = 0;
    for (const auto& seg : snap->segments) {
      enc_bytes += seg.columns[c].EncodedBytes();
      plain_bytes += seg.columns[c].PlainBytes();
    }
    col_ratio[c] = enc_bytes > 0 ? static_cast<double>(plain_bytes) /
                                       static_cast<double>(enc_bytes)
                                 : 1.0;
    std::printf("  %-7s %-5s %8.2f KB -> %8.2f KB  (%5.2fx)\n", names[c],
                storage::ColumnEncodingName(snap->DominantEncoding(c)),
                plain_bytes / 1024.0, enc_bytes / 1024.0, col_ratio[c]);
  }
  bool ratio_ok = col_ratio[0] >= 2.0 && col_ratio[1] >= 2.0;
  if (!ratio_ok) {
    std::fprintf(stderr,
                 "FAIL: dict/rle compression below 2x (cat %.2fx run %.2fx)\n",
                 col_ratio[0], col_ratio[1]);
    return 1;
  }

  // --- selectivity sweep, encoded vs plain, interleaved best-of-N --------
  std::printf("\n  %-18s %10s %10s %9s %8s\n", "probe", "plain ms",
              "encoded ms", "speedup", "rows");
  bool throughput_ok = true;
  for (const Probe& probe : kProbes) {
    double plain_best = 1e300, enc_best = 1e300;
    size_t plain_rows = 0, enc_rows = 0;
    for (int r = 0; r < kRounds; ++r) {
      enc.DropEncodedSegments();
      plain_best = std::min(plain_best,
                            RunOnce(&planner, probe.sql, &plain_rows));
      if (!enc.BuildEncodedSegments().ok()) return 2;
      enc_best = std::min(enc_best, RunOnce(&planner, probe.sql, &enc_rows));
    }
    if (plain_rows != enc_rows) {
      std::fprintf(stderr, "%s: encoded/plain result mismatch: %zu vs %zu\n",
                   probe.name, enc_rows, plain_rows);
      return 2;
    }
    double speedup = plain_best / enc_best;
    std::printf("  %-18s %10.3f %10.3f %8.2fx %8zu%s\n", probe.name,
                plain_best * 1e3, enc_best * 1e3, speedup, enc_rows,
                probe.gated ? "  [gated >=1x]" : "");
    if (probe.gated && speedup < 1.0) throughput_ok = false;
  }
  if (!throughput_ok) {
    std::fprintf(stderr,
                 "FAIL: encoded scan slower than plain on a gated probe\n");
    return 1;
  }

  // --- rebuild cost (ungated) -------------------------------------------
  // A first build encodes every segment; a rebuild after a small append
  // folds the rows into the stale statistics and the open segment. The
  // first round's fold also builds the table's fold state (about an
  // Analyze), which the best of the rounds leaves out.
  double first_best = 1e300, rebuild_best = 1e300;
  for (int r = 0; r < kRounds; ++r) {
    enc.DropEncodedSegments();
    first_best = std::min(first_best, TimeBuild(&enc));
    for (int k = 0; k < 2; ++k) {
      if (!enc.Insert(EncRow(static_cast<int>(enc.NumRows()))).ok()) return 2;
    }
    rebuild_best = std::min(rebuild_best, TimeBuild(&enc));
  }
  std::printf("\n  rebuild: first build %.2f ms, after appending 2 rows %.2f ms "
              "(best of %d)\n",
              first_best * 1e3, rebuild_best * 1e3, kRounds);
  std::printf("OK\n");
  return 0;
}
