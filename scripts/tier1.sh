#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then an ASan+UBSan smoke run
# of the observability tests (the newest subsystem, and the one with the most
# concurrency) in a separate sanitized build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

cmake -B build-asan -S . -DDRUGTREE_SANITIZE=address
cmake --build build-asan -j "$(nproc)" \
  --target obs_test obs_telemetry_test query_equiv_test \
           storage_encoding_test query_adaptive_test query_index_join_test
./build-asan/tests/obs_test
./build-asan/tests/obs_telemetry_test
./build-asan/tests/query_equiv_test
./build-asan/tests/storage_encoding_test
./build-asan/tests/query_adaptive_test
./build-asan/tests/query_index_join_test

# TSan smoke of the concurrency-bearing paths: the thread pool itself, the
# multi-channel network + windowed mediator, morsel-parallel execution, the
# multi-session serving layer (admission/scheduler/cancellation), the
# engine equivalence corpus under parallelism + mid-query cancellation, and
# the sharded scatter-gather tier (replica failover races, per-shard
# deadline cancellation, cross-replica handle tracking), and the adaptive
# planning loop (shared plan cache / cost calibrator / adaptive controller
# hit from every serving slot), the continuous-telemetry stack (gauge
# Set vs Snapshot hammer, sampler/alert engine ticked from serving threads),
# and the index nested-loop join under parallelism and sharded serving.
cmake -B build-tsan -S . -DDRUGTREE_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" \
  --target util_thread_pool_test integration_async_test query_parallel_test \
           server_test query_equiv_test shard_test query_adaptive_test \
           obs_test obs_telemetry_test query_index_join_test
./build-tsan/tests/util_thread_pool_test
./build-tsan/tests/integration_async_test
./build-tsan/tests/query_parallel_test
./build-tsan/tests/server_test
./build-tsan/tests/query_equiv_test
./build-tsan/tests/shard_test
./build-tsan/tests/query_adaptive_test
./build-tsan/tests/obs_test
./build-tsan/tests/obs_telemetry_test
./build-tsan/tests/query_index_join_test

# Statusz smoke: the serving layer's JSON introspection snapshot must parse
# and cover every exported surface (tracker tree, SLOs, occupancy, traces,
# timeline/alerts/health telemetry blocks).
scripts/statusz_check.sh build

# Standing perf-regression gate (E16): the deterministic telemetry timeline
# must match the recorded baseline point-for-point (and the selftest proves
# the gate rejects a synthetically regressed artifact).
scripts/perf_gate.sh build
scripts/perf_gate.sh build --selftest

# Release-build encoding smoke: encoded segments must hit >=2x compression
# on dict/RLE-friendly columns and never lose to the plain row scan on
# low-cardinality predicates.
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-rel -j "$(nproc)" \
  --target bench_encoding bench_shard bench_adaptive
./build-rel/bench/bench_encoding

# Scale-out gate (E14): the 4-shard topology must deliver >= 2x the
# 1-shard analytic throughput on the heavy broadcast join, and the routed
# interactive path must keep its p99 inside the 2ms mobile budget.
./build-rel/bench/bench_shard --gate

# Adaptive-planning gate (E15): the virtual clock must leave calibration
# untouched, the plan cache must serve >= 90% of the skewed mix and cut
# optimizer (re-plan) time at least in half, and the adaptive controller
# must hold the interactive p99 inside the 2ms budget under analytic load.
./build-rel/bench/bench_adaptive --gate

# Tracing overhead A/B gate: the instrumented Release build (with trace
# capture on) must stay within budget of the DRUGTREE_OBS_NOOP build. Also
# gates the memory-tracker fast path (tracked encoded and plain scans, <5%) and
# the continuous-telemetry sampler (DRUGTREE_TELEMETRY on/off, <5%).
scripts/obs_noop_ab.sh build-rel build-noop

# Informational perf diff vs the recorded baselines. Never fails tier-1:
# shared machines are noisy and baselines may predate hardware changes —
# read the table when it flags.
scripts/bench_diff.sh build \
  || echo "bench_diff: regressions flagged (informational)"

echo "tier-1 OK"
