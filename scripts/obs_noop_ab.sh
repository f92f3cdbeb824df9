#!/usr/bin/env bash
# DRUGTREE_OBS_NOOP A/B overhead gate: the fully-instrumented Release build
# (spans compiled in, trace capture enabled via DRUGTREE_TRACE_CAPTURE=1)
# must stay within a small budget of the noop build (DRUGTREE_OBS_NOOP=ON,
# spans compiled out) on the tree-query bench.
#
# Shared machines show ~10% run-to-run wall noise, so a naive single-run
# comparison would flake. The gate interleaves A/B process runs and takes
# the best-of-N per benchmark (noise is strictly additive, so min converges
# on the true cost), then gates on the geomean of the per-benchmark ratios.
#
# A second gate covers the memory-tracker fast path: bench_encoding in
# tracked mode (DRUGTREE_ENCODED_TRACKED=1) runs the same scan query with
# and without a per-query tracker hierarchy attached, over encoded segments
# and over plain rows, and fails if charging costs more than
# DRUGTREE_TRACKER_BUDGET_PCT percent on either.
#
# Usage: scripts/obs_noop_ab.sh [instrumented-build-dir] [noop-build-dir]
# Env:
#   DRUGTREE_AB_BUDGET_PCT       allowed geomean overhead (default: 5)
#   DRUGTREE_AB_REPS             interleaved A/B repetitions (default: 5)
#   DRUGTREE_AB_FILTER           --benchmark_filter for the probe workload
#   DRUGTREE_TRACKER_BUDGET_PCT  tracker fast-path budget (default: 5)
#   DRUGTREE_TELEMETRY_BUDGET_PCT  telemetry on/off budget (default: 5)
#   DRUGTREE_TELEMETRY_AB_REPS     telemetry lane repetitions (default: 10)
set -euo pipefail
cd "$(dirname "$0")/.."

ON_DIR="${1:-build-rel}"
OFF_DIR="${2:-build-noop}"
BUDGET="${DRUGTREE_AB_BUDGET_PCT:-5}"
REPS="${DRUGTREE_AB_REPS:-5}"
FILTER="${DRUGTREE_AB_FILTER:-BM_SubtreeQuery_(Naive|Optimized)/1024|BM_AncestorQuery_Optimized/4096}"

if [[ ! -d "${ON_DIR}" ]]; then
  cmake -B "${ON_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
fi
if [[ ! -d "${OFF_DIR}" ]]; then
  cmake -B "${OFF_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DDRUGTREE_OBS_NOOP=ON
fi
cmake --build "${ON_DIR}" -j "$(nproc)" \
  --target bench_tree_query bench_encoding bench_server
cmake --build "${OFF_DIR}" -j "$(nproc)" --target bench_tree_query

SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "== obs noop A/B gate: ${REPS} interleaved reps, budget +${BUDGET}%"
for i in $(seq 1 "${REPS}"); do
  DRUGTREE_TRACE_CAPTURE=1 "${ON_DIR}/bench/bench_tree_query" \
    --benchmark_filter="${FILTER}" \
    --benchmark_out="${SCRATCH}/on_${i}.json" \
    --benchmark_out_format=json >/dev/null 2>&1
  "${OFF_DIR}/bench/bench_tree_query" \
    --benchmark_filter="${FILTER}" \
    --benchmark_out="${SCRATCH}/off_${i}.json" \
    --benchmark_out_format=json >/dev/null 2>&1
done

python3 - "${SCRATCH}" "${REPS}" "${BUDGET}" <<'EOF'
import json, math, sys

scratch, reps, budget = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["real_time"] for b in doc["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}

on, off = {}, {}
for i in range(1, reps + 1):
    for name, v in load(f"{scratch}/on_{i}.json").items():
        on.setdefault(name, []).append(v)
    for name, v in load(f"{scratch}/off_{i}.json").items():
        off.setdefault(name, []).append(v)

common = sorted(set(on) & set(off))
if not common:
    sys.exit("obs_noop_ab: no common benchmarks between the two builds")

ratios = []
for name in common:
    a, b = min(on[name]), min(off[name])
    ratios.append(a / b)
    print(f"  {name:<40} traced={a:12.1f}ns noop={b:12.1f}ns "
          f"{100 * (a / b - 1):+.1f}%")

geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
overhead = 100 * (geomean - 1)
print(f"  geomean overhead {overhead:+.2f}% (budget +{budget:.0f}%)")
if overhead > budget:
    sys.exit(f"obs_noop_ab: FAIL — tracing overhead {overhead:+.2f}% exceeds "
             f"+{budget:.0f}% budget")
print("obs_noop_ab: OK")
EOF

# Continuous-telemetry overhead lane: the same serving probe workload with
# the sampler + alert engine live (DRUGTREE_TELEMETRY=1, 10ms cadence) vs
# disabled (DRUGTREE_TELEMETRY=0, null telemetry surfaces). Interleaved
# best-of-N like the tracing gate; the probe prints one machine-readable
# `abprobe_micros:` wall total per run.
TELEMETRY_BUDGET="${DRUGTREE_TELEMETRY_BUDGET_PCT:-5}"
# The serving probe is short (~20ms) so per-run scheduler jitter is large
# relative to the budget; more interleaved reps than the tracing gate let
# the best-of-N min actually converge.
TELEMETRY_REPS="${DRUGTREE_TELEMETRY_AB_REPS:-10}"
echo "== telemetry on/off gate: ${TELEMETRY_REPS} interleaved reps, budget +${TELEMETRY_BUDGET}%"
for i in $(seq 1 "${TELEMETRY_REPS}"); do
  DRUGTREE_TELEMETRY=1 "${ON_DIR}/bench/bench_server" --abprobe \
    > "${SCRATCH}/tel_on_${i}.txt"
  DRUGTREE_TELEMETRY=0 "${ON_DIR}/bench/bench_server" --abprobe \
    > "${SCRATCH}/tel_off_${i}.txt"
done

python3 - "${SCRATCH}" "${TELEMETRY_REPS}" "${TELEMETRY_BUDGET}" <<'EOF'
import sys

scratch, reps, budget = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def load(path):
    with open(path) as f:
        for line in f:
            if line.startswith("abprobe_micros:"):
                return float(line.split(":", 1)[1])
    sys.exit(f"obs_noop_ab: {path} carries no abprobe_micros line")

on = min(load(f"{scratch}/tel_on_{i}.txt") for i in range(1, reps + 1))
off = min(load(f"{scratch}/tel_off_{i}.txt") for i in range(1, reps + 1))
overhead = 100 * (on / off - 1)
print(f"  telemetry on={on:.0f}us off={off:.0f}us ({overhead:+.2f}%, "
      f"budget +{budget:.0f}%)")
if overhead > budget:
    sys.exit(f"obs_noop_ab: FAIL — telemetry overhead {overhead:+.2f}% "
             f"exceeds +{budget:.0f}% budget")
print("obs_noop_ab: telemetry gate OK")
EOF

echo "== memory-tracker fast-path gate, encoded and plain scans (budget +${DRUGTREE_TRACKER_BUDGET_PCT:-5}%)"
DRUGTREE_ENCODED_TRACKED=1 "${ON_DIR}/bench/bench_encoding"
