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
  --target obs_test obs_telemetry_test query_equiv_test query_exec_test \
           storage_encoding_test query_adaptive_test query_index_join_test \
           query_plan_test core_test storage_table_test \
           query_lexer_parser_test server_test query_parallel_test \
           integration_test integration_async_test core_snapshot_test \
           storage_value_test
./build-asan/tests/obs_test
./build-asan/tests/obs_telemetry_test
./build-asan/tests/query_equiv_test
./build-asan/tests/query_exec_test
./build-asan/tests/storage_encoding_test
# Folding appended rows keeps pointers into table rows until a Delete
# drops them; a missed drop is a use-after-free only the sanitizer sees.
./build-asan/tests/storage_table_test
./build-asan/tests/query_adaptive_test
./build-asan/tests/query_index_join_test
# Pruned rows are index arithmetic: an off-by-one is an out-of-bounds Value
# read that only the sanitizer reliably catches. core_test runs the workload
# statements on a real instance under both plans.
./build-asan/tests/query_plan_test
./build-asan/tests/core_test
# Seeded byte mutations of the workload statements: a malformed statement
# must fail the lexer or parser with a Status (and a plan-cache hit must
# not read past its template's parameters), never read out of bounds.
./build-asan/tests/query_lexer_parser_test
# Planners keep the physical plans they lower and re-run them: a kept plan
# that still pointed at a finished request's context or memory tracker, or
# at a worker pool a parallelism change replaced, is a use-after-free that
# only this lane reports (TSan runs both binaries too, for races).
./build-asan/tests/server_test
./build-asan/tests/query_parallel_test
# Every federated fetch moves its records through Deferred values and
# fetch windows: a dangling one is a use-after-free only this lane reports
# (TSan runs integration_async_test too, for the shared link's races).
./build-asan/tests/integration_test
./build-asan/tests/integration_async_test
# Hostile snapshot bytes: seeded truncations and byte flips of a saved
# snapshot, and crafted value and row encodings, must each fail with a
# Status; a length read from the file that is trusted past its bytes is an
# out-of-bounds read only this lane reports.
./build-asan/tests/core_snapshot_test
./build-asan/tests/storage_value_test

# TSan smoke of the concurrency-bearing paths: the thread pool itself, the
# multi-channel network + windowed mediator, morsel-parallel execution, the
# multi-session serving layer (admission/scheduler/cancellation), the
# engine equivalence corpus under parallelism + mid-query cancellation, and
# the sharded scatter-gather tier (replica failover races, per-shard
# deadline cancellation, cross-replica handle tracking), and the adaptive
# planning loop (shared plan cache / adaptive controller hit from every
# serving slot), the continuous-telemetry stack (gauge
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
# build-rel is also the instrumented side of the tracing A/B gate below,
# which pins code alignment on both sides; configure it the same way here.
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-falign-functions=64 -falign-loops=32"
cmake --build build-rel -j "$(nproc)" \
  --target bench_encoding bench_shard bench_adaptive
./build-rel/bench/bench_encoding

# Scale-out gate (E14): the 4-shard topology must deliver >= 2x the
# 1-shard analytic throughput on the heavy broadcast join, and the routed
# interactive path must keep its p99 inside the 2ms mobile budget.
./build-rel/bench/bench_shard --gate

# Adaptive-planning gate (E15): the plan cache must serve >= 90% of the
# skewed mix and cut optimizer (re-plan) time at least in half, and the
# adaptive controller must hold the interactive p99 inside the 2ms budget
# under analytic load.
./build-rel/bench/bench_adaptive --gate

# Tracing overhead A/B gate: the instrumented Release build (spans compiled
# in) must stay within budget of the DRUGTREE_OBS_NOOP build. Also
# gates the memory-tracker fast path (tracked encoded and plain scans, <5%) and
# the continuous-telemetry sampler (DRUGTREE_TELEMETRY on/off, <5%).
scripts/obs_noop_ab.sh build-rel build-noop

# Informational perf diff vs the recorded baselines. Never fails tier-1:
# shared machines are noisy and baselines may predate hardware changes —
# read the table when it flags.
scripts/bench_diff.sh build \
  || echo "bench_diff: regressions flagged (informational)"

echo "tier-1 OK"
