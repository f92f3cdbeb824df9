// DrugTree repository benchmark: the per-workload program run.py builds.
//
// Runs one named workload against the public APIs (core::DrugTree,
// query::*, server::DrugTreeServer, mobile::MobileSession) for a fixed
// wall-clock window, checks the outputs against the naive plan, prints a
// human-readable report, and ends with one JSON line:
//
//   drugtree_bench --workload screen|serve|mobile|ingest --seed N
//                  --seconds S --trace 0|1 [--corrupt-reference]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice (half the window untraced, half traced), times the calls into each
// layer's public functions from this file, and reports the per-layer
// ledger. Nothing inside src/ is instrumented for this.
//
// Every percentile here is computed from raw samples (nearest rank), never
// from util::Histogram: that histogram's first bucket spans [0, 1) of the
// recorded unit, so sub-millisecond latencies recorded in ms come back as
// linear interpolation inside the bucket (p50 ~ 0.50, p95 ~ 0.95).
//
// --corrupt-reference damages one reference result before the comparison;
// the run must then report correct=false and exit non-zero (the self-test
// uses it to prove the check can fail).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "mobile/client_cache.h"
#include "mobile/device.h"
#include "mobile/lod.h"
#include "mobile/protocol.h"
#include "mobile/session.h"
#include "mobile/trace.h"
#include "mobile/viewport.h"
#include "obs/explain.h"
#include "obs/trace_context.h"
#include "obs/trace_store.h"
#include "query/executor.h"
#include "query/logical_plan.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/rules.h"
#include "server/server.h"
#include "util/clock.h"
#include "util/rng.h"

namespace {

using namespace drugtree;

// ------------------------------------------------------------ parameters

/// The instance every workload runs on: 6 families x 24 taxa (286 tree
/// nodes), 300 ligands, 6 activities per protein. Its statements take well
/// under a millisecond, short enough that most of them find a stretch of
/// the run that other tenants of the host leave alone (see BestPerOp); on
/// the 8 x 32 taxa instance, 1000 ligands, 12 activities per protein
/// (~2 ms statements) the same code read 1.3x slower for whole 25 s runs.
/// The data seed is fixed, so every run of a workload queries the same
/// instance; --seed varies only the workload's inputs.
constexpr int kFamilies = 6;
constexpr int kTaxaPerFamily = 24;
constexpr int kLigands = 300;
constexpr double kActivitiesPerProtein = 6.0;
constexpr uint64_t kDataSeed = 42;

/// setup_s is the median of kSetupReps set-ups before the window and
/// kWindowSetups spare ones spread evenly over it: the host's speed drifts
/// over seconds to minutes, and set-ups spread over the run sample it the
/// way the ops do.
constexpr int kSetupReps = 2;
constexpr int kWindowSetups = 7;

/// Thread budget: one load-generator thread plus the server's workers never
/// exceed 4 (the benchmark host's core count).
constexpr int kServerWorkers = 2;

/// serve: outstanding requests, the analytic share, and the interactive
/// deadline.
constexpr size_t kServeInFlight = 8;
constexpr int64_t kServeAnalyticEvery = 100;
constexpr int64_t kOverlayDeadlineMicros = 150'000;
constexpr double kNodeSkew = 0.7;
/// Interactive latency budget (the E14/E15 p99 target) for slo_miss_pct.
constexpr double kSloMs = 2.0;

/// Ops per pass (see BestPerOp): statements for screen/ingest, requests for
/// serve, sessions for mobile. A pass takes under a second on a 4-vCPU host.
constexpr size_t kPassQueries = 1024;
constexpr size_t kPassRequests = 8192;
constexpr size_t kPassSessions = 128;

/// ingest: one write batch of kWritesPerBatch AddActivity calls plus the
/// encoded-segment rebuild after every kReadsPerWrite reads. The instance
/// is built afresh every kPassesPerBuild passes (outside any op's time), so
/// the passes of a run do nearly the same work: a pass adds 16 rows to the
/// ~0.9k activities.
constexpr size_t kReadsPerWrite = 128;
constexpr int kWritesPerBatch = 2;
constexpr size_t kPassesPerBuild = 2;

/// Statements per workload whose results are checked against the naive
/// plan, and statements the traced run decomposes into the ledger.
constexpr size_t kCheckStatements = 24;
constexpr size_t kLedgerStatements = 300;


using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}
double SecondsSince(SteadyClock::time_point t0) {
  return MicrosSince(t0) / 1e6;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "drugtree_bench: %s\n", message.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile of sorted values.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The highest whole percentile, capped at 99, that leaves at least ten of
/// `n` samples beyond it ("p99" in the metric names means this percentile).
int TailPercentile(size_t n) {
  if (n < 20) return 50;
  int p = static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
  return std::clamp(p, 50, 99);
}

/// Raw samples in arrival order; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / count(); }
  double Quantile(double q) const { return SortedQuantile(Sorted(0, count()), q); }
  double Median() const { return Quantile(0.5); }
  double Tail() const { return Quantile(TailPercentile(count()) / 100.0); }

 private:
  std::vector<double> Sorted(size_t begin, size_t end) const {
    std::vector<double> s(values_.begin() + static_cast<ptrdiff_t>(begin),
                          values_.begin() + static_cast<ptrdiff_t>(end));
    std::sort(s.begin(), s.end());
    return s;
  }

  std::vector<double> values_;
};

/// The fastest time of each op of a pass over the passes of a run. Every
/// workload replays one fixed, seeded sequence of ops (a pass) until the
/// window closes, so op i of every pass does the same work; its fastest
/// time is what the code costs when other tenants of the host leave it
/// alone. Interference only ever slows an op down and comes and goes on a
/// scale of milliseconds to minutes, so the per-op minimum over passes
/// spread across the window is far steadier between runs than any
/// statistic over all of the window's samples.
class BestPerOp {
 public:
  void Add(size_t op, double v) {
    if (op >= best_.size()) best_.resize(op + 1, kUnseen);
    best_[op] = std::min(best_[op], v);
  }
  /// The fastest time of every op seen at least once.
  Samples Best() const {
    Samples s;
    for (double v : best_) {
      if (v != kUnseen) s.Add(v);
    }
    return s;
  }

 private:
  static constexpr double kUnseen = HUGE_VAL;
  std::vector<double> best_;
};

/// `count` ranks of a Zipf(skew) distribution over n candidates, sampled
/// systematically: draw i is the rank at CDF (offset + i) / count for one
/// seeded offset, so every rank appears count × p(rank) times, give or take
/// one.
std::vector<size_t> SystematicZipf(size_t n, size_t count, double skew,
                                   util::Rng* rng) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf[r] = sum;
  }
  const double offset = rng->NextDouble();
  std::vector<size_t> ranks;
  for (size_t i = 0; i < count; ++i) {
    const double u = (offset + static_cast<double>(i)) /
                     static_cast<double>(count) * sum;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ranks.push_back(std::min(r, n - 1));
  }
  return ranks;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_reference = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (a.workload != "screen" && a.workload != "serve" &&
      a.workload != "mobile" && a.workload != "ingest") {
    Die("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0.0)) Die("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

// ------------------------------------------------------------ correctness

bool SameValue(const storage::Value& a, const storage::Value& b) {
  if (a.type() == storage::ValueType::kDouble ||
      b.type() == storage::ValueType::kDouble) {
    util::Result<double> x = a.ToNumeric();
    util::Result<double> y = b.ToNumeric();
    if (!x.ok() || !y.ok()) return false;
    double scale = std::max({1.0, std::fabs(*x), std::fabs(*y)});
    return std::fabs(*x - *y) <= 1e-9 * scale;
  }
  return a == b;
}

/// Row-for-row comparison (every workload statement has an ORDER BY that
/// fixes the row order).
bool SameResult(const query::QueryResult& got, const query::QueryResult& want,
                std::string* why) {
  if (got.columns.size() != want.columns.size()) {
    *why = "column count differs";
    return false;
  }
  if (got.rows.size() != want.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + " vs " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    if (got.rows[r].size() != want.rows[r].size()) {
      *why = "row " + std::to_string(r) + " arity differs";
      return false;
    }
    for (size_t c = 0; c < got.rows[r].size(); ++c) {
      if (!SameValue(got.rows[r][c], want.rows[r][c])) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + got.rows[r][c].ToString() + " vs " +
               want.rows[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

/// The reference plan: everything off, on the row engine. A naive 3-way
/// join is a nested loop over the full cross product (tens of millions of
/// row pairs per statement), so statements with two or more joins keep the
/// naive join order and unpushed predicates but join by hashing.
query::PlannerOptions ReferenceOptions(const std::string& sql) {
  query::PlannerOptions o = query::PlannerOptions::Naive();
  o.batch_size = 1;
  size_t joins = 0;
  for (size_t pos = sql.find(" JOIN "); pos != std::string::npos;
       pos = sql.find(" JOIN ", pos + 1)) {
    ++joins;
  }
  if (joins >= 2) o.enable_hash_join = true;
  return o;
}

query::PlannerOptions EngineOptions() {
  query::PlannerOptions o = query::PlannerOptions::Optimized();
  o.use_result_cache = false;
  o.parallelism = 1;
  return o;
}

// ------------------------------------------------------------ ledger

/// Operator kinds the per-layer report names (first word of Describe()).
const char* const kOperatorKinds[] = {
    "SeqScan", "IndexScan", "Filter",        "Project",  "NestedLoopJoin",
    "HashJoin", "Sort",     "HashAggregate", "Distinct", "Limit"};

const core::QueryKind kQueryKinds[] = {
    core::QueryKind::kSubtreeProteins, core::QueryKind::kSubtreeOverlay,
    core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
    core::QueryKind::kAncestorPath};

/// Sums over the statements decomposed by the traced run.
struct Ledger {
  int64_t statements = 0;
  int64_t failures = 0;
  double query_wall_us = 0;  // DrugTree::Query on the same statements
  double parse_us = 0;
  double normalize_us = 0;
  double optimize_us = 0;
  double plan_us = 0;   // Planner::Plan: parse + optimize + physical
  double front_us = 0;  // ParseQuery + build + optimize, just before Plan
  double render_us = 0;
  double execute_us = 0;
  int64_t rows_examined = 0;
  int64_t result_rows = 0;
  int64_t bytes_scanned = 0;
  std::map<std::string, double> op_self_us;
  std::map<std::string, int64_t> op_rows;
  int64_t seq_scans = 0;
  int64_t encoded_scans = 0;

  /// Physical planning: Planner::Plan's time minus the same parse and
  /// optimize steps timed again right before it (the first pass over a
  /// statement runs on colder caches, so the earlier parts would
  /// over-subtract). Summed over statements, then subtracted.
  double PhysicalUs() const { return std::max(0.0, plan_us - front_us); }
  double PartsUs() const {
    return parse_us + normalize_us + optimize_us + PhysicalUs() + render_us +
           execute_us;
  }
};

void WalkAnalyzed(const obs::ExplainNode& node, Ledger* ledger) {
  std::string kind = node.label.substr(0, node.label.find(' '));
  int64_t children_us = 0;
  for (const auto& c : node.children) {
    children_us += c.elapsed_micros;
    WalkAnalyzed(c, ledger);
  }
  ledger->op_self_us[kind] +=
      static_cast<double>(std::max<int64_t>(0, node.elapsed_micros - children_us));
  ledger->op_rows[kind] += node.rows_out;
  if (kind == "SeqScan") {
    ++ledger->seq_scans;
    if (node.label.find("[encoded:") != std::string::npos) {
      ++ledger->encoded_scans;
    }
  }
}

// ------------------------------------------------------------ the bench

struct Check {
  std::string what;
  std::string sql;
  query::QueryResult got;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)), rng_(args_.seed) {}

  int Main();

 private:
  bool uses_server() const {
    return args_.workload == "serve" || args_.workload == "mobile";
  }

  // Set-up --------------------------------------------------------------
  std::unique_ptr<core::DrugTree> BuildDrugTree(util::Clock* clock);
  void Install(std::unique_ptr<core::DrugTree> dt,
               std::unique_ptr<server::DrugTreeServer> server);
  /// Builds an instance (with its server) as the workload uses it, warms
  /// it up, and records the set-up time; keep=true makes it the instance
  /// the run uses, keep=false throws it away.
  void SetupOnce(bool keep);
  void GenerateInputs();
  void WarmUp(core::DrugTree* dt, server::DrugTreeServer* server);

  // Timed windows --------------------------------------------------------
  struct Window {
    BestPerOp latency_ms;    // the workload's primary operation
    BestPerOp secondary_ms;  // its secondary operation (see README)
    Samples interaction_ms;  // mobile: every interaction
    std::map<std::string, BestPerOp> kind_us;  // screen/ingest: per QueryKind
    double seconds = 0;
    int64_t passes = 0;      // completed passes
    int setups = 0;          // spare set-ups timed during the window
    double ops_per_s = 0;    // from the per-op best times
    int64_t attempted = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    int64_t slo_offered = 0;
    int64_t slo_missed = 0;
    double bytes = 0;
    int64_t bytes_ops = 0;
    double wall_per_op_us = 0;
    // serve
    Samples submit_us;
    int64_t offered = 0;
    // mobile
    int64_t nodes_shipped = 0;
    int64_t nodes_skipped = 0;
    Samples lod_cut_us;
    Samples frame_build_us;
    Samples overlay_query_us;
    int64_t replay_node_mismatch = 0;
    // ingest
    Samples add_activity_us;
    Samples encode_build_ms;
  };
  void RunWindow(double seconds, bool traced, Window* w);
  /// At a pass boundary: times a spare set-up if the next of kWindowSetups
  /// evenly spaced points of the window has passed.
  void SetUpDuringWindow(SteadyClock::time_point t0, double seconds,
                         Window* w);
  void QueryWindow(double seconds, bool traced, Window* w);
  void ServeWindow(double seconds, bool traced, Window* w);
  void MobileWindow(double seconds, bool traced, Window* w);
  void WriteBatch(size_t op, Window* w);
  void ReplayMobileLayers(const std::vector<mobile::Action>& trace, Window* w);

  // Correctness ------------------------------------------------------------
  void ComputeReferences(const std::vector<std::string>& sqls);
  void CompareAgainst(const std::string& what, const std::string& sql,
                      const query::QueryResult& got,
                      const query::QueryResult& want);
  void Verify();

  // Ledger -------------------------------------------------------------------
  bool Decompose(const std::string& sql, Ledger* ledger);

  // Reporting ------------------------------------------------------------------
  void PrintHeader();
  std::vector<Metric> EndToEnd(Window& w);
  std::vector<Metric> PerLayer(Window& untraced, Window& traced);
  void PrintMetrics(const char* title, const std::vector<Metric>& metrics);
  int Finish(const std::vector<Metric>& metrics, int64_t attempted,
             int64_t failed);

  Args args_;
  util::Rng rng_;
  // Declaration order is destruction order in reverse: the planner and the
  // server borrow the instance, which borrows the clock.
  util::SimulatedClock clock_;
  std::unique_ptr<core::DrugTree> dt_;
  std::unique_ptr<server::DrugTreeServer> server_;
  std::unique_ptr<query::Planner> ledger_planner_;

  Samples setup_s_, setup_build_s_, setup_server_s_;
  double setup_encode_s_ = 0;

  // Workload inputs: one pass each.
  std::vector<core::WorkloadQuery> queries_;  // screen / ingest
  size_t next_query_ = 0;                     // reads issued so far
  struct ServeOp {
    std::string sql;
    bool interactive;
  };
  std::vector<ServeOp> requests_;                   // serve
  std::vector<std::vector<mobile::Action>> traces_;  // mobile
  std::vector<std::string> accessions_, ligand_ids_;  // ingest writes
  uint64_t next_session_id_ = 1;
  std::vector<std::string> run_sql_;  // statements the run issued (ledger)

  // Correctness state.
  std::map<std::string, query::QueryResult> reference_;
  std::vector<Check> pending_checks_;
  int64_t checks_ = 0;
  int64_t mismatches_ = 0;
};

// ------------------------------------------------------------ set-up

std::unique_ptr<core::DrugTree> Bench::BuildDrugTree(util::Clock* clock) {
  core::BuildOptions options;
  options.seed = kDataSeed;
  options.num_families = kFamilies;
  options.taxa_per_family = kTaxaPerFamily;
  options.num_ligands = kLigands;
  options.activities_per_protein = kActivitiesPerProtein;
  util::Result<std::unique_ptr<core::DrugTree>> built =
      core::DrugTree::Build(options, clock);
  if (!built.ok()) Die("Build failed: " + built.status().ToString());
  return std::move(*built);
}

void Bench::Install(std::unique_ptr<core::DrugTree> dt,
                    std::unique_ptr<server::DrugTreeServer> server) {
  ledger_planner_.reset();
  server_.reset();  // must not outlive the instance
  dt_ = std::move(dt);
  server_ = std::move(server);
  ledger_planner_ = std::make_unique<query::Planner>(dt_->catalog());
}

void Bench::SetupOnce(bool keep) {
  util::SimulatedClock spare_clock;  // a spare instance's own clock
  const SteadyClock::time_point t0 = SteadyClock::now();
  std::unique_ptr<core::DrugTree> dt =
      BuildDrugTree(keep ? &clock_ : &spare_clock);
  setup_build_s_.Add(SecondsSince(t0));
  std::unique_ptr<server::DrugTreeServer> server;
  if (uses_server()) {
    const SteadyClock::time_point ts = SteadyClock::now();
    server::ServerOptions so;
    so.worker_threads = kServerWorkers;
    so.scheduler.total_slots = kServerWorkers;
    so.result_cache_bytes = 0;
    // Deadlines and queue waits on the real clock; the instance clock stays
    // simulated (integration and the mobile link model run on it).
    server = dt->MakeServer(so, util::RealClock::Instance());
    setup_server_s_.Add(SecondsSince(ts));
  }
  if (keep) {
    Install(std::move(dt), std::move(server));
    if (queries_.empty() && requests_.empty() && traces_.empty()) {
      GenerateInputs();
    }
    WarmUp(dt_.get(), server_.get());
  } else {
    WarmUp(dt.get(), server.get());
    server.reset();  // must not outlive the instance
  }
  setup_s_.Add(SecondsSince(t0));
}

void Bench::SetUpDuringWindow(SteadyClock::time_point t0, double seconds,
                              Window* w) {
  if (w->setups < kWindowSetups &&
      SecondsSince(t0) >= seconds * static_cast<double>(w->setups + 1) /
                              static_cast<double>(kWindowSetups + 1)) {
    ++w->setups;
    SetupOnce(/*keep=*/false);
  }
}

void Bench::GenerateInputs() {
  const std::string& w = args_.workload;
  if (w == "screen" || w == "ingest") {
    // GenerateWorkload's mix and focus-node distribution (Zipf over internal
    // nodes, largest clade first; over leaves for ancestor paths), but at
    // exact kind shares and with systematically sampled focus nodes, then
    // shuffled: independent draws let the share of heavy statements (the
    // root's clade is ~7% of the draws), and with it every figure, vary by
    // ~15% from seed to seed in a pass of this size.
    const phylo::Tree& tree = dt_->tree();
    std::vector<phylo::NodeId> internals;
    tree.PreOrder([&](phylo::NodeId id) {
      if (!tree.node(id).IsLeaf()) internals.push_back(id);
    });
    std::stable_sort(internals.begin(), internals.end(),
                     [&](phylo::NodeId a, phylo::NodeId b) {
                       return dt_->tree_index().SubtreeSize(a) >
                              dt_->tree_index().SubtreeSize(b);
                     });
    const std::vector<phylo::NodeId> leaves = tree.Leaves();
    const std::pair<core::QueryKind, double> mix[] = {
        {core::QueryKind::kScreeningJoin, 0.55},
        {core::QueryKind::kSubtreeProteins, 0.15},
        {core::QueryKind::kSubtreeOverlay, 0.10},
        {core::QueryKind::kFamilyAggregate, 0.10},
        {core::QueryKind::kAncestorPath, 0.10}};
    for (const auto& [kind, share] : mix) {
      const std::vector<phylo::NodeId>& nodes =
          kind == core::QueryKind::kAncestorPath ? leaves : internals;
      const size_t count = static_cast<size_t>(share * kPassQueries + 0.5);
      for (size_t rank : SystematicZipf(nodes.size(), count, kNodeSkew, &rng_)) {
        core::WorkloadQuery q;
        q.kind = kind;
        q.focus = nodes[rank];
        q.sql = core::MakeQuerySql(kind, q.focus, tree, core::WorkloadParams());
        queries_.push_back(std::move(q));
      }
    }
    rng_.Shuffle(queries_);
  }
  if (w == "ingest") {
    for (auto [sql, out] :
         {std::pair{"SELECT p.accession FROM proteins p ORDER BY p.accession",
                    &accessions_},
          std::pair{"SELECT l.ligand_id FROM ligands l ORDER BY l.ligand_id",
                    &ligand_ids_}}) {
      util::Result<query::QueryOutcome> r = dt_->Query(sql, EngineOptions());
      if (!r.ok()) Die("ingest key query failed: " + r.status().ToString());
      for (const auto& row : r->result.rows) out->push_back(row[0].AsString());
    }
    if (accessions_.empty() || ligand_ids_.empty()) Die("no ingest keys");
  }
  if (w == "serve") {
    // Overlay queries on Zipf-skewed nodes; every kServeAnalyticEvery-th
    // request a family aggregate over the whole tree (analytic).
    const uint64_t nodes = dt_->tree().NumNodes();
    const std::string analytic_sql = core::MakeQuerySql(
        core::QueryKind::kFamilyAggregate, dt_->tree().root(), dt_->tree(),
        core::WorkloadParams());
    for (size_t i = 1; i <= kPassRequests; ++i) {
      if (i % static_cast<size_t>(kServeAnalyticEvery) == 0) {
        requests_.push_back({analytic_sql, false});
      } else {
        requests_.push_back(
            {dt_->OverlayQuerySql(
                 static_cast<phylo::NodeId>(rng_.Zipf(nodes, kNodeSkew))),
             true});
      }
    }
  }
  if (w == "mobile") {
    // 50-action traces, 15% of actions overlay queries.
    for (size_t i = 0; i < kPassSessions; ++i) {
      traces_.push_back(dt_->MakeTrace(mobile::TraceParams(), rng_.Next()));
    }
  }
}

void Bench::WarmUp(core::DrugTree* dt, server::DrugTreeServer* server) {
  const std::string& w = args_.workload;
  if (w == "screen" || w == "ingest") {
    for (size_t i = 0; i < 100 && i < queries_.size(); ++i) {
      (void)dt->Query(queries_[i].sql, EngineOptions());
    }
  } else if (w == "serve") {
    util::Rng warm(args_.seed ^ 0x5eedULL);
    const uint64_t nodes = dt->tree().NumNodes();
    for (int i = 0; i < 300; ++i) {
      server::QueryRequest req;
      req.session_id = 1 + static_cast<uint64_t>(i % 64);
      req.sql = dt->OverlayQuerySql(
          static_cast<phylo::NodeId>(warm.Zipf(nodes, kNodeSkew)));
      req.planner = EngineOptions();
      (void)server->Submit(std::move(req));
    }
  } else {  // mobile
    for (uint64_t i = 0; i < 2; ++i) {
      mobile::MobileSession session = dt->MakeSession(
          mobile::DeviceProfile::TabletWifi(), mobile::SessionOptions(),
          EngineOptions(), server, next_session_id_++,
          kOverlayDeadlineMicros);
      (void)session.Run(
          dt->MakeTrace(mobile::TraceParams(), args_.seed ^ (0x5eedULL + i)));
    }
  }
}

// ------------------------------------------------------------ windows

void Bench::RunWindow(double seconds, bool traced, Window* w) {
  const std::string& wl = args_.workload;
  if (wl == "screen" || wl == "ingest") {
    QueryWindow(seconds, traced, w);
  } else if (wl == "serve") {
    ServeWindow(seconds, traced, w);
  } else {
    MobileWindow(seconds, traced, w);
  }
}

void Bench::WriteBatch(size_t op, Window* w) {
  // Inputs are drawn before the timer starts.
  struct Write {
    const std::string* accession;
    const std::string* ligand;
    double affinity;
  };
  Write writes[kWritesPerBatch];
  for (Write& wr : writes) {
    wr.accession = &accessions_[rng_.Uniform(accessions_.size())];
    wr.ligand = &ligand_ids_[rng_.Uniform(ligand_ids_.size())];
    wr.affinity = rng_.UniformDouble(1.0, 10'000.0);
  }
  const SteadyClock::time_point t0 = SteadyClock::now();
  bool ok = true;
  for (const Write& wr : writes) {
    const SteadyClock::time_point ta = SteadyClock::now();
    ok = dt_->AddActivity(*wr.accession, *wr.ligand, wr.affinity).ok() && ok;
    w->add_activity_us.Add(MicrosSince(ta));
  }
  const SteadyClock::time_point te = SteadyClock::now();
  ok = dt_->BuildEncodedSegments().ok() && ok;
  w->encode_build_ms.Add(MicrosSince(te) / 1000.0);
  const double ms = MicrosSince(t0) / 1000.0;
  w->secondary_ms.Add(op, ms);
  if (!ok) ++w->failed;
}

void Bench::QueryWindow(double seconds, bool traced, Window* w) {
  const bool writes = args_.workload == "ingest";
  const query::PlannerOptions options = EngineOptions();
  Ledger scratch;  // the traced loop's own decomposition (not reported)
  double op_wall_us = 0;
  const SteadyClock::time_point t0 = SteadyClock::now();
  for (size_t idx = 0; SecondsSince(t0) < seconds;
       idx = (idx + 1) % queries_.size()) {
    if (idx == 0) SetUpDuringWindow(t0, seconds, w);
    if (writes && idx == 0 && w->attempted > 0 &&
        static_cast<size_t>(w->attempted) % (kPassesPerBuild * queries_.size()) == 0) {
      // Back to the instance the first pass ran on.
      Install(BuildDrugTree(&clock_), nullptr);
    }
    ++next_query_;
    const core::WorkloadQuery& q = queries_[idx];
    ++w->attempted;
    const SteadyClock::time_point ts = SteadyClock::now();
    if (traced) {
      if (!Decompose(q.sql, &scratch)) ++w->failed;
      op_wall_us += MicrosSince(ts);
      ++w->completed;
    } else {
      util::Result<query::QueryOutcome> r = dt_->Query(q.sql, options);
      const double us = MicrosSince(ts);
      op_wall_us += us;
      if (!r.ok()) {
        ++w->failed;
        continue;
      }
      ++w->completed;
      w->latency_ms.Add(idx, us / 1000.0);
      w->kind_us[core::QueryKindName(q.kind)].Add(idx, us);
      if (!writes && q.kind == core::QueryKind::kFamilyAggregate) {
        w->secondary_ms.Add(idx, us / 1000.0);
      }
      w->bytes += static_cast<double>(r->result.ApproxBytes());
      ++w->bytes_ops;
      // The first pass's results are checked against the naive plan after
      // the window (the references were taken before it, at this version).
      if (next_query_ <= kCheckStatements && reference_.count(q.sql)) {
        pending_checks_.push_back(
            {"timed result", q.sql, std::move(r->result)});
      }
    }
    if (writes && (idx + 1) % kReadsPerWrite == 0) {
      WriteBatch(idx / kReadsPerWrite, w);
    }
  }
  w->seconds = SecondsSince(t0);
  w->passes = w->attempted / static_cast<int64_t>(queries_.size());
  w->wall_per_op_us = w->attempted > 0 ? op_wall_us / w->attempted : 0.0;
  // One client: reads per second of a pass made of every op's best time.
  const double pass_ms = w->latency_ms.Best().Sum() +
                         (writes ? w->secondary_ms.Best().Sum() : 0.0);
  w->ops_per_s = pass_ms > 0 ? 1000.0 * static_cast<double>(
                                   w->latency_ms.Best().count()) / pass_ms
                             : 0.0;
}

void Bench::ServeWindow(double seconds, bool traced, Window* w) {
  struct InFlight {
    server::ResponseHandle handle;
    double sent_us;
    size_t op;  // position in the pass
  };
  size_t kept_interactive = 0, kept_analytic = 0;
  const SteadyClock::time_point t0 = SteadyClock::now();

  auto complete = [&](InFlight& f) {
    util::Result<query::QueryOutcome> r = f.handle.Wait();
    const double ms = (MicrosSince(t0) - f.sent_us) / 1000.0;
    const ServeOp& op = requests_[f.op];
    if (op.interactive) {
      const bool ok = r.ok();
      if (ok) {
        ++w->completed;
        w->latency_ms.Add(f.op, ms);
        w->bytes += static_cast<double>(r->result.ApproxBytes());
        ++w->bytes_ops;
      } else if (!r.status().IsResourceExhausted() &&
                 !r.status().IsCancelled()) {
        ++w->failed;
      }
      if (!ok || ms > kSloMs) ++w->slo_missed;
    } else if (r.ok()) {
      w->secondary_ms.Add(f.op, ms);
    } else if (!r.status().IsResourceExhausted() &&
               !r.status().IsCancelled()) {
      ++w->failed;
    }
    if (r.ok() && !traced) {
      size_t& kept = op.interactive ? kept_interactive : kept_analytic;
      if (kept < (op.interactive ? kCheckStatements : 2)) {
        ++kept;
        pending_checks_.push_back(
            {"served result", op.sql, std::move(r->result)});
      }
    }
  };

  // Closed loop over kServeInFlight outstanding requests, replaying the
  // pass: a completed request is replaced at once by the next one. The
  // generator blocks on the oldest request and then collects whatever else
  // completed, so a request's latency is how long it held its slot.
  const double end_us = seconds * 1e6;
  std::deque<InFlight> inflight;
  auto submit = [&]() {
    const size_t op = static_cast<size_t>(w->offered++) % requests_.size();
    if (op == 0) SetUpDuringWindow(t0, seconds, w);
    server::QueryRequest req;
    req.planner = EngineOptions();
    req.sql = requests_[op].sql;
    if (requests_[op].interactive) {
      req.session_id = 1 + static_cast<uint64_t>(op % 64);
      req.query_class = server::QueryClass::kInteractive;
      req.deadline_micros =
          server_->clock()->NowMicros() + kOverlayDeadlineMicros;
      ++w->slo_offered;
    } else {
      req.session_id = 1000;
      req.query_class = server::QueryClass::kAnalytic;
    }
    ++w->attempted;
    if (run_sql_.size() < kLedgerStatements) run_sql_.push_back(req.sql);
    const double sent = MicrosSince(t0);
    const SteadyClock::time_point ts = SteadyClock::now();
    server::ResponseHandle h = server_->SubmitAsync(std::move(req));
    if (traced) w->submit_us.Add(MicrosSince(ts));
    inflight.push_back({std::move(h), sent, op});
  };
  auto collect = [&]() {
    complete(inflight.front());  // blocks until the oldest completes
    inflight.pop_front();
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->handle.Done()) {
        complete(*it);
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (MicrosSince(t0) < end_us) {
    while (inflight.size() < kServeInFlight) submit();
    collect();
  }
  w->seconds = SecondsSince(t0);
  while (!inflight.empty()) collect();
  w->passes = w->offered / static_cast<int64_t>(requests_.size());
  w->wall_per_op_us = w->seconds * 1e6 / static_cast<double>(w->attempted);
  // Closed loop (Little's law): requests per second = requests outstanding
  // over the mean time a request holds its slot, from every op's best time.
  const Samples interactive = w->latency_ms.Best();
  const Samples analytic = w->secondary_ms.Best();
  const double mean_ms = (interactive.Sum() + analytic.Sum()) /
                         static_cast<double>(std::max<size_t>(
                             1, interactive.count() + analytic.count()));
  w->ops_per_s = mean_ms > 0 ? 1000.0 * kServeInFlight / mean_ms : 0.0;
}

void Bench::ReplayMobileLayers(const std::vector<mobile::Action>& trace,
                               Window* w) {
  // Mirrors MobileSession's per-action viewport update so the LOD cut and
  // frame builder are timed on exactly the inputs the session visited.
  const mobile::DeviceProfile device = mobile::DeviceProfile::TabletWifi();
  const mobile::SessionOptions so;
  const phylo::TreeLayout& layout = dt_->layout();
  const std::vector<double> annotation = dt_->overlay()->AnnotationVector();
  mobile::ClientCache cache(device.cache_bytes);
  mobile::Viewport viewport = mobile::Viewport::FullExtent(layout);
  mobile::LodParams lod = so.lod;
  lod.screen_height_px = device.screen_height_px;
  int64_t nodes = 0;
  for (const mobile::Action& a : trace) {
    switch (a.kind) {
      case mobile::ActionKind::kInitialLoad:
        viewport = mobile::Viewport::FullExtent(layout);
        break;
      case mobile::ActionKind::kZoomIn:
        viewport.Zoom(0.5, layout);
        break;
      case mobile::ActionKind::kZoomOut:
        viewport.Zoom(2.0, layout);
        break;
      case mobile::ActionKind::kPan:
        viewport.Pan(a.dx * viewport.Width(), a.dy * viewport.Height(),
                     layout);
        break;
      case mobile::ActionKind::kFocusNode: {
        double h = std::max(2.0, static_cast<double>(
                                     dt_->tree_index().SubtreeLeafCount(a.node)));
        viewport.CenterOn(layout.position(a.node), viewport.Width(), h * 1.2,
                          layout);
        break;
      }
      case mobile::ActionKind::kOverlayQuery:
        break;
    }
    if (a.kind == mobile::ActionKind::kOverlayQuery) {
      server::QueryRequest req;
      req.session_id = next_session_id_;
      req.sql = dt_->OverlayQuerySql(a.node);
      req.query_class = server::QueryClass::kInteractive;
      req.deadline_micros =
          server_->clock()->NowMicros() + kOverlayDeadlineMicros;
      req.planner = EngineOptions();
      const SteadyClock::time_point t0 = SteadyClock::now();
      server::ResponseHandle h = server_->SubmitAsync(std::move(req));
      w->submit_us.Add(MicrosSince(t0));
      (void)h.Wait();
      w->overlay_query_us.Add(MicrosSince(t0));
      continue;
    }
    const SteadyClock::time_point t0 = SteadyClock::now();
    util::Result<std::vector<mobile::LodNode>> cut = mobile::ComputeLodCut(
        dt_->tree(), dt_->tree_index(), layout, viewport, annotation, lod);
    w->lod_cut_us.Add(MicrosSince(t0));
    if (!cut.ok()) continue;
    const SteadyClock::time_point t1 = SteadyClock::now();
    mobile::Frame frame = mobile::BuildFrame(*cut, cache.CollapsedIds(),
                                             cache.ExpandedIds(), true);
    w->frame_build_us.Add(MicrosSince(t1));
    cache.Install(frame.nodes);
    nodes += static_cast<int64_t>(frame.nodes.size());
  }
  w->replay_node_mismatch += nodes;  // the caller subtracts the session's count
}

void Bench::MobileWindow(double seconds, bool traced, Window* w) {
  const std::string overlay_kind =
      mobile::ActionKindName(mobile::ActionKind::kOverlayQuery);
  const SteadyClock::time_point t0 = SteadyClock::now();
  double op_wall_us = 0;
  BestPerOp session_wall_ms;
  for (size_t idx = 0; SecondsSince(t0) < seconds;
       idx = (idx + 1) % traces_.size()) {
    if (idx == 0) SetUpDuringWindow(t0, seconds, w);
    const std::vector<mobile::Action>& trace = traces_[idx];
    const SteadyClock::time_point ts = SteadyClock::now();
    obs::TraceStore sink(1024);
    mobile::SessionOptions so;
    so.trace_sink = &sink;
    const uint64_t session_id = next_session_id_++;
    mobile::MobileSession session =
        dt_->MakeSession(mobile::DeviceProfile::TabletWifi(), so,
                         EngineOptions(), server_.get(), session_id,
                         kOverlayDeadlineMicros);
    util::Result<mobile::SessionReport> report = session.Run(trace);
    w->attempted += static_cast<int64_t>(trace.size());
    if (!report.ok()) {
      w->failed += static_cast<int64_t>(trace.size());
      continue;
    }
    std::vector<obs::TraceRecord> records = sink.Snapshot();
    if (records.size() != trace.size()) {
      Die("session trace sink lost records");
    }
    // Interaction latency is simulated link time plus the real compute
    // charged to it; most interactions charge none, so per-interaction
    // percentiles sit on exactly repeatable values. The op reported is
    // therefore the session: its mean interaction latency, and its mean
    // overlay-query interaction latency as the secondary op.
    double session_ms = 0, overlay_ms = 0;
    int overlays = 0;
    for (const obs::TraceRecord& r : records) {
      const double ms = static_cast<double>(r.TotalMicros()) / 1000.0;
      session_ms += ms;
      w->interaction_ms.Add(ms);
      if (r.sql == overlay_kind) {
        overlay_ms += ms;
        ++overlays;
      }
      if (!r.ok) ++w->failed;
    }
    w->latency_ms.Add(idx, session_ms / static_cast<double>(records.size()));
    if (overlays > 0) w->secondary_ms.Add(idx, overlay_ms / overlays);
    w->completed += static_cast<int64_t>(records.size());
    ++w->passes;  // sessions so far; divided below
    w->bytes += static_cast<double>(report->bytes_shipped);
    w->bytes_ops += static_cast<int64_t>(trace.size());
    w->nodes_shipped += static_cast<int64_t>(report->nodes_shipped);
    w->nodes_skipped += static_cast<int64_t>(report->nodes_delta_skipped);
    w->slo_offered += static_cast<int64_t>(report->overlay_queries);
    w->slo_missed += static_cast<int64_t>(report->overlay_shed +
                                          report->overlay_deadline_missed);
    session_wall_ms.Add(idx, MicrosSince(ts) / 1000.0);
    op_wall_us += MicrosSince(ts);
    if (traced) {
      ReplayMobileLayers(trace, w);
      w->replay_node_mismatch -= static_cast<int64_t>(report->nodes_shipped);
    }
    if (run_sql_.size() < kLedgerStatements) {
      for (const mobile::Action& a : trace) {
        if (a.kind == mobile::ActionKind::kOverlayQuery &&
            run_sql_.size() < kLedgerStatements) {
          run_sql_.push_back(dt_->OverlayQuerySql(a.node));
        }
      }
    }
  }
  w->seconds = SecondsSince(t0);
  w->passes /= static_cast<int64_t>(traces_.size());
  w->wall_per_op_us = w->attempted > 0 ? op_wall_us / w->attempted : 0.0;
  // One client: interactions per second of sessions that each take their
  // best wall time (every trace has the same number of actions).
  const Samples wall = session_wall_ms.Best();
  w->ops_per_s = wall.Sum() > 0
                     ? 1000.0 * static_cast<double>(traces_[0].size()) *
                           static_cast<double>(wall.count()) / wall.Sum()
                     : 0.0;
}

// ------------------------------------------------------------ correctness

void Bench::ComputeReferences(const std::vector<std::string>& sqls) {
  for (const std::string& sql : sqls) {
    if (reference_.count(sql)) continue;
    util::Result<query::QueryOutcome> r =
        dt_->Query(sql, ReferenceOptions(sql));
    if (!r.ok()) Die("reference plan failed: " + r.status().ToString());
    reference_[sql] = std::move(r->result);
  }
  if (args_.corrupt_reference && !reference_.empty()) {
    query::QueryResult& victim = reference_.begin()->second;
    if (victim.rows.empty() || victim.rows[0].empty()) {
      victim.rows.push_back({storage::Value::String("corrupted")});
    } else {
      victim.rows[0][0] = storage::Value::String("corrupted");
    }
  }
}

void Bench::CompareAgainst(const std::string& what, const std::string& sql,
                           const query::QueryResult& got,
                           const query::QueryResult& want) {
  ++checks_;
  std::string why;
  if (!SameResult(got, want, &why)) {
    ++mismatches_;
    std::printf("MISMATCH (%s): %s\n  %s\n", what.c_str(), why.c_str(),
                sql.c_str());
  }
}

void Bench::Verify() {
  const query::PlannerOptions options = EngineOptions();
  // 1. Results produced during the timed window.
  for (const Check& c : pending_checks_) {
    auto it = reference_.find(c.sql);
    if (it == reference_.end()) {
      ComputeReferences({c.sql});
      it = reference_.find(c.sql);
    }
    CompareAgainst(c.what + " vs naive", c.sql, c.got, it->second);
    if (c.what == "served result") {
      // Served results must equal the direct path's result.
      util::Result<query::QueryOutcome> direct = dt_->Query(c.sql, options);
      if (!direct.ok()) {
        ++checks_;
        ++mismatches_;
        continue;
      }
      CompareAgainst("served vs direct", c.sql, c.got, direct->result);
    }
  }
  // 2. Statements re-run after the window: after ingest's last write, and
  // the mobile overlay statements (which a session does not expose).
  std::vector<std::string> recheck;
  if (args_.workload == "ingest") {
    for (size_t i = 0; i < kCheckStatements && i < queries_.size(); ++i) {
      recheck.push_back(queries_[(next_query_ + i * 37) % queries_.size()].sql);
    }
    reference_.clear();
  } else if (args_.workload == "mobile") {
    std::set<std::string> seen;
    for (const std::string& sql : run_sql_) {
      if (seen.insert(sql).second) recheck.push_back(sql);
      if (recheck.size() == kCheckStatements) break;
    }
  }
  if (!recheck.empty()) ComputeReferences(recheck);
  for (const std::string& sql : recheck) {
    if (args_.workload == "mobile") {
      server::QueryRequest req;
      req.session_id = next_session_id_;
      req.sql = sql;
      req.planner = options;
      util::Result<query::QueryOutcome> served = server_->Submit(std::move(req));
      if (!served.ok()) {
        ++checks_;
        ++mismatches_;
        continue;
      }
      CompareAgainst("served overlay vs naive", sql, served->result,
                     reference_[sql]);
    }
    util::Result<query::QueryOutcome> got = dt_->Query(sql, options);
    if (!got.ok()) {
      ++checks_;
      ++mismatches_;
      continue;
    }
    CompareAgainst(args_.workload == "ingest" ? "after last write vs naive"
                                              : "direct overlay vs naive",
                   sql, got->result, reference_[sql]);
  }
}

// ------------------------------------------------------------ ledger

bool Bench::Decompose(const std::string& sql, Ledger* l) {
  const query::PlannerOptions options = EngineOptions();
  query::Catalog& catalog = *dt_->catalog();
  SteadyClock::time_point t = SteadyClock::now();
  util::Result<query::Statement> stmt = query::ParseStatement(sql);
  l->parse_us += MicrosSince(t);
  ++l->statements;
  if (!stmt.ok()) {
    ++l->failures;
    return false;
  }
  t = SteadyClock::now();
  (void)query::NormalizeStatement(&stmt->select, /*want_canonical=*/false);
  l->normalize_us += MicrosSince(t);
  t = SteadyClock::now();
  util::Result<query::LogicalPtr> logical =
      query::BuildLogicalPlan(stmt->select, catalog);
  util::Result<query::LogicalPtr> optimized =
      logical.ok() ? query::OptimizeLogicalPlan(*logical, catalog,
                                                options.optimizer)
                   : logical;
  l->optimize_us += MicrosSince(t);
  if (!optimized.ok()) {
    ++l->failures;
    return false;
  }
  // Planner::Plan parses, builds and optimizes again before lowering; see
  // Ledger::PhysicalUs.
  t = SteadyClock::now();
  {
    util::Result<query::SelectStatement> again = query::ParseQuery(sql);
    util::Result<query::LogicalPtr> front =
        again.ok() ? query::BuildLogicalPlan(*again, catalog)
                   : util::Result<query::LogicalPtr>(again.status());
    if (front.ok()) {
      (void)query::OptimizeLogicalPlan(*front, catalog, options.optimizer);
    }
  }
  l->front_us += MicrosSince(t);
  query::ExecStats stats;
  t = SteadyClock::now();
  util::Result<query::PhysicalPtr> physical =
      ledger_planner_->Plan(sql, options, &stats);
  l->plan_us += MicrosSince(t);
  if (!physical.ok()) {
    ++l->failures;
    return false;
  }
  t = SteadyClock::now();
  std::string logical_text = (*optimized)->ToString();
  std::string physical_text = (*physical)->ExplainString();
  l->render_us += MicrosSince(t);
  (*physical)->EnableAnalyze(util::RealClock::Instance());
  t = SteadyClock::now();
  util::Result<query::QueryResult> result =
      query::ExecutePlan(physical->get(), nullptr, options.batch_size);
  l->execute_us += MicrosSince(t);
  if (!result.ok()) {
    ++l->failures;
    return false;
  }
  WalkAnalyzed((*physical)->AnalyzeTree(), l);
  l->rows_examined +=
      stats.rows_scanned + stats.rows_index_fetched + stats.rows_joined;
  l->result_rows += static_cast<int64_t>(result->rows.size());
  l->bytes_scanned += stats.bytes_scanned;
  return true;
}

// ------------------------------------------------------------ reporting

void Bench::PrintHeader() {
  const std::string& w = args_.workload;
  std::string shape;
  if (w == "screen") {
    shape = "closed loop, 1 client, DrugTree::Query, no writes";
  } else if (w == "serve") {
    shape = "closed loop, 1 generator keeping " +
            std::to_string(kServeInFlight) +
            " requests outstanding via SubmitAsync (1 in " +
            std::to_string(kServeAnalyticEvery) + " analytic), " +
            std::to_string(kServerWorkers) + " server workers";
  } else if (w == "mobile") {
    shape = "closed loop, 1 client replaying TabletWifi sessions, " +
            std::to_string(kServerWorkers) + " server workers";
  } else {
    shape = "closed loop, 1 client, " + std::to_string(kWritesPerBatch) +
            " AddActivity + BuildEncodedSegments every " +
            std::to_string(kReadsPerWrite) + " reads";
  }
  std::printf("workload %s: %s\n", w.c_str(), shape.c_str());
  std::printf(
      "instance: %zu nodes, %lld ligands, %lld activities (data seed %llu, "
      "workload seed %llu)\n",
      dt_->tree().NumNodes(),
      static_cast<long long>(dt_->ligands()->NumRows()),
      static_cast<long long>(dt_->activities()->NumRows()),
      static_cast<unsigned long long>(kDataSeed),
      static_cast<unsigned long long>(args_.seed));
}

std::vector<Metric> Bench::EndToEnd(Window& w) {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s_.Median(), "s"});
  const Samples latency = w.latency_ms.Best();
  m.push_back({"latency_p50_ms", latency.Median(), "ms"});
  m.push_back({"latency_p99_ms", latency.Tail(), "ms"});
  m.push_back({"ops_per_s", w.ops_per_s, "1/s"});
  m.push_back({"secondary_p50_ms", w.secondary_ms.Best().Median(), "ms"});
  m.push_back({"bytes_per_op",
               w.bytes / static_cast<double>(std::max<int64_t>(1, w.bytes_ops)),
               "B"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

void Bench::PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Bench::Finish(const std::vector<Metric>& metrics, int64_t attempted,
                  int64_t failed) {
  const bool correct = failed == 0 && mismatches_ == 0 && checks_ > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed + mismatches_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<Metric> Bench::PerLayer(Window& a, Window& b) {
  const std::string& wl = args_.workload;
  std::vector<Metric> m;
  // Ledger pass: the run's statements, each through DrugTree::Query and
  // then through the decomposed public pipeline.
  std::vector<std::string> sqls = run_sql_;
  if (sqls.empty()) {
    for (size_t i = 0; i < kLedgerStatements && i < queries_.size(); ++i) {
      sqls.push_back(queries_[i].sql);
    }
  }
  Ledger l;
  for (const std::string& sql : sqls) {
    const SteadyClock::time_point t = SteadyClock::now();
    util::Result<query::QueryOutcome> r = dt_->Query(sql, EngineOptions());
    l.query_wall_us += MicrosSince(t);
    if (!r.ok()) ++l.failures;
    Decompose(sql, &l);
  }
  const double n = static_cast<double>(std::max<int64_t>(1, l.statements));
  m.push_back({"query.parse_us", l.parse_us / n, "us"});
  m.push_back({"query.normalize_us", l.normalize_us / n, "us"});
  m.push_back({"query.optimize_us", l.optimize_us / n, "us"});
  m.push_back({"query.physical_us", l.PhysicalUs() / n, "us"});
  m.push_back({"query.render_us", l.render_us / n, "us"});
  m.push_back({"query.execute_us", l.execute_us / n, "us"});
  m.push_back({"query.ledger_gap_pct",
               100.0 * (1.0 - l.PartsUs() / std::max(l.query_wall_us, 1e-9)),
               "%"});
  m.push_back({"query.rows_examined_per_row",
               static_cast<double>(l.rows_examined) /
                   static_cast<double>(std::max<int64_t>(1, l.result_rows)),
               "ratio"});
  m.push_back({"query.bytes_scanned", static_cast<double>(l.bytes_scanned) / n,
               "B"});
  for (const char* op : kOperatorKinds) {
    m.push_back({std::string("query.op.") + op + ".self_us",
                 l.op_self_us[op] / n, "us"});
    m.push_back({std::string("query.op.") + op + ".rows",
                 static_cast<double>(l.op_rows[op]) / n, "rows"});
  }
  for (core::QueryKind k : kQueryKinds) {
    auto it = a.kind_us.find(core::QueryKindName(k));
    m.push_back({std::string("query.kind.") + core::QueryKindName(k) +
                     ".p50_us",
                 it == a.kind_us.end() ? 0.0 : it->second.Best().Median(),
                 "us"});
  }

  // Plan cache and server: the serving path only.
  query::PlanCache::Stats pc;
  server::DrugTreeServer::ClassCounters ci, ca;
  Samples queue_wait_us, service_us;
  int64_t slow = 0, traced_interactive = 0;
  double service_all_us = 0;
  int64_t records = 0;
  if (server_ != nullptr) {
    pc = server_->plan_cache()->stats();
    ci = server_->counters(server::QueryClass::kInteractive);
    ca = server_->counters(server::QueryClass::kAnalytic);
    for (const obs::TraceRecord& r : server_->trace_store()->Snapshot()) {
      const double service =
          static_cast<double>(r.PhaseMicros(obs::TracePhase::kPlan) +
                              r.PhaseMicros(obs::TracePhase::kExecute));
      service_all_us += service;
      ++records;
      if (r.query_class != "interactive") continue;
      ++traced_interactive;
      queue_wait_us.Add(
          static_cast<double>(r.PhaseMicros(obs::TracePhase::kQueueWait)));
      service_us.Add(service);
      if (r.TotalMicros() > kSloMs * 1000.0) ++slow;
    }
  }
  const double window_us = (a.seconds + b.seconds) * 1e6;
  const double completed_all =
      static_cast<double>(ci.completed + ca.completed);
  m.push_back({"query.plan_cache_hit_pct",
               Pct(static_cast<double>(pc.hits),
                   static_cast<double>(pc.hits + pc.misses)),
               "%"});
  m.push_back({"query.plan_cache_variant_evictions",
               static_cast<double>(pc.variant_evictions), "count"});
  m.push_back({"server.submit_us", b.submit_us.Mean(), "us"});
  m.push_back({"server.queue_wait_p50_us", queue_wait_us.Median(), "us"});
  m.push_back({"server.queue_wait_p99_us", queue_wait_us.Tail(), "us"});
  m.push_back({"server.service_us", service_us.Mean(), "us"});
  m.push_back({"server.busy_pct",
               records > 0 ? Pct(service_all_us / records * completed_all,
                                 kServerWorkers * window_us)
                           : 0.0,
               "%"});
  m.push_back({"server.shed", static_cast<double>(ci.shed + ca.shed), "count"});
  m.push_back({"server.deadline_missed",
               static_cast<double>(ci.deadline_missed + ca.deadline_missed),
               "count"});
  m.push_back({"server.analytic_completed", static_cast<double>(ca.completed),
               "count"});
  // Offered interactive requests that missed the 2 ms budget: the serve
  // generator times them itself; under mobile the server's retained trace
  // records give the slow share of the completed ones.
  double slo_miss = 0;
  if (wl == "serve") {
    slo_miss = Pct(static_cast<double>(a.slo_missed + b.slo_missed),
                   static_cast<double>(a.slo_offered + b.slo_offered));
  } else if (wl == "mobile") {
    const double offered = static_cast<double>(a.slo_offered + b.slo_offered);
    const double refused = static_cast<double>(a.slo_missed + b.slo_missed);
    const double slow_share =
        traced_interactive > 0
            ? static_cast<double>(slow) / static_cast<double>(traced_interactive)
            : 0.0;
    slo_miss = Pct(refused + (offered - refused) * slow_share, offered);
  }
  m.push_back({"server.slo_miss_pct", slo_miss, "%"});

  // Mobile (traced half only: the replay runs there).
  m.push_back({"mobile.lod_cut_us", b.lod_cut_us.Mean(), "us"});
  m.push_back({"mobile.frame_build_us", b.frame_build_us.Mean(), "us"});
  m.push_back({"mobile.overlay_query_us", b.overlay_query_us.Mean(), "us"});
  const double interactions = static_cast<double>(a.completed + b.completed);
  m.push_back({"mobile.nodes_shipped",
               wl == "mobile" ? static_cast<double>(a.nodes_shipped +
                                                    b.nodes_shipped) /
                                    std::max(1.0, interactions)
                              : 0.0,
               "nodes"});
  m.push_back({"mobile.delta_skip_pct",
               Pct(static_cast<double>(a.nodes_skipped + b.nodes_skipped),
                   static_cast<double>(a.nodes_skipped + b.nodes_skipped +
                                       a.nodes_shipped + b.nodes_shipped)),
               "%"});

  // Core and storage.
  m.push_back({"core.add_activity_us",
               (a.add_activity_us.Sum() + b.add_activity_us.Sum()) /
                   std::max<double>(1.0, a.add_activity_us.count() +
                                             b.add_activity_us.count()),
               "us"});
  m.push_back({"storage.encode_build_ms",
               (a.encode_build_ms.Sum() + b.encode_build_ms.Sum()) /
                   std::max<double>(1.0, a.encode_build_ms.count() +
                                             b.encode_build_ms.count()),
               "ms"});
  m.push_back({"storage.encoded_scan_pct",
               Pct(static_cast<double>(l.encoded_scans),
                   static_cast<double>(l.seq_scans)),
               "%"});
  double encoded_bytes = 0, plain_bytes = 0;
  for (const auto& [name, table] : dt_->catalog()->tables()) {
    (void)name;
    if (const storage::EncodedTableSnapshot* snap = table->encoded()) {
      encoded_bytes += static_cast<double>(snap->encoded_bytes);
      plain_bytes += static_cast<double>(snap->plain_bytes);
    }
  }
  m.push_back({"storage.encoded_bytes", encoded_bytes, "B"});
  m.push_back({"storage.plain_bytes", plain_bytes, "B"});

  // Set-up and integration.
  m.push_back({"setup.build_s", setup_build_s_.Median(), "s"});
  m.push_back({"setup.encode_s", setup_encode_s_, "s"});
  m.push_back({"setup.server_s", setup_server_s_.Median(), "s"});
  m.push_back({"integration.requests",
               static_cast<double>(dt_->source_network()->num_requests()),
               "count"});
  m.push_back({"integration.bytes",
               static_cast<double>(dt_->source_network()->bytes_transferred()),
               "B"});
  m.push_back({"integration.semantic_cache_hit_pct",
               100.0 * dt_->semantic_cache()->stats().HitRate(), "%"});

  // Load generator and tracing.
  m.push_back({"loadgen.offered_qps",
               static_cast<double>(a.offered) / std::max(a.seconds, 1e-9),
               "1/s"});
  // Traced half against the untraced half: wall time per op.
  m.push_back({"obs.trace_overhead_pct",
               100.0 * (b.wall_per_op_us / std::max(a.wall_per_op_us, 1e-9) -
                        1.0),
               "%"});

  std::printf("ledger: %lld statements decomposed (%lld failed), "
              "DrugTree::Query wall %.1f us/stmt, parts %.1f us/stmt\n",
              static_cast<long long>(l.statements),
              static_cast<long long>(l.failures), l.query_wall_us / n,
              l.PartsUs() / n);
  std::printf("  execute share of the parts: %.1f%%; rows examined per result "
              "row: %.2f; plan-cache hits: %lld of %lld lookups\n",
              Pct(l.execute_us, l.PartsUs()),
              static_cast<double>(l.rows_examined) /
                  static_cast<double>(std::max<int64_t>(1, l.result_rows)),
              static_cast<long long>(pc.hits),
              static_cast<long long>(pc.hits + pc.misses));
  for (const auto& [op, us] : l.op_self_us) {
    bool named = false;
    for (const char* k : kOperatorKinds) named = named || op == k;
    if (!named) {
      std::printf("  (unlisted operator %s: self %.2f us/stmt)\n", op.c_str(),
                  us / n);
    }
  }
  if (wl == "mobile" && b.replay_node_mismatch != 0) {
    std::printf("  note: LOD replay shipped %lld nodes more than the sessions "
                "(replay diverges from MobileSession)\n",
                static_cast<long long>(b.replay_node_mismatch));
  }
  if (l.failures > 0) {
    mismatches_ += l.failures;
  }
  return m;
}

int Bench::Main() {
  for (int i = 0; i < kSetupReps; ++i) SetupOnce(/*keep=*/true);
  PrintHeader();
  if (args_.workload == "screen" || args_.workload == "ingest") {
    std::vector<std::string> first;
    for (size_t i = 0; i < kCheckStatements && i < queries_.size(); ++i) {
      first.push_back(queries_[i].sql);
    }
    ComputeReferences(first);
  }
  if (!args_.trace) {
    Window w;
    RunWindow(args_.seconds, /*traced=*/false, &w);
    Verify();
    std::vector<Metric> metrics = EndToEnd(w);
    const double attempted = static_cast<double>(w.attempted + checks_);
    const Samples latency = w.latency_ms.Best();
    const Samples secondary = w.secondary_ms.Best();
    std::printf("end-to-end (%s over %.2f s, %lld whole passes; each op's "
                "best time over the passes; tail = p%d of n=%zu ops; setup "
                "median of %zu)\n",
                args_.workload.c_str(), w.seconds,
                static_cast<long long>(w.passes),
                TailPercentile(latency.count()), latency.count(),
                setup_s_.count());
    std::printf("  secondary: median of n=%zu ops, p%d = %.4f ms\n",
                secondary.count(), TailPercentile(secondary.count()),
                secondary.Tail());
    if (w.interaction_ms.count() > 0) {
      std::printf("  per interaction: p50 = %.4f ms, p%d = %.4f ms (n=%zu)\n",
                  w.interaction_ms.Median(),
                  TailPercentile(w.interaction_ms.count()),
                  w.interaction_ms.Tail(), w.interaction_ms.count());
    }
    std::printf("  slo_miss_pct (>%.1f ms, shed, cancelled, failed) = %.4f%% "
                "of %lld offered\n",
                kSloMs, Pct(static_cast<double>(w.slo_missed),
                            static_cast<double>(w.slo_offered)),
                static_cast<long long>(w.slo_offered));
    std::printf("  error_pct = %.4f%% (%lld failed ops, %lld of %lld checks "
                "mismatched)\n",
                Pct(static_cast<double>(w.failed + mismatches_), attempted),
                static_cast<long long>(w.failed),
                static_cast<long long>(mismatches_),
                static_cast<long long>(checks_));
    PrintMetrics("metrics:", metrics);
    return Finish(metrics, w.attempted + checks_, w.failed);
  }
  {
    const SteadyClock::time_point t = SteadyClock::now();
    if (!dt_->BuildEncodedSegments().ok()) Die("BuildEncodedSegments failed");
    setup_encode_s_ = SecondsSince(t);
  }
  Window a, b;
  RunWindow(args_.seconds / 2, /*traced=*/false, &a);
  RunWindow(args_.seconds / 2, /*traced=*/true, &b);
  Verify();
  std::vector<Metric> metrics = PerLayer(a, b);
  PrintMetrics("per-layer ledger:", metrics);
  return Finish(metrics, a.attempted + b.attempted + checks_,
                a.failed + b.failed);
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(ParseArgs(argc, argv));
  return bench.Main();
}
