#!/usr/bin/env bash
# Statusz smoke: `bench_server --statusz` must emit one parseable JSON
# object covering every introspection surface the serving layer exports —
# the memory-tracker tree, per-class SLO state, admission occupancy,
# scheduler slots, per-class counters, TraceStore totals, and the
# continuous-telemetry surfaces (timeline series summaries, alert rules and
# transitions, derived per-subsystem health). Runs on a virtual clock, so
# the shape (not just the parse) is asserted exactly.
# A second pass validates the sharded topology snapshot from
# `bench_shard --statusz`: contiguous interval ranges covering the pre
# axis, per-replica server snapshots carrying their shard identities and
# health rollups, and the router's decision counters.
#
# Usage: scripts/statusz_check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [[ ! -x "${BUILD_DIR}/bench/bench_server" || \
      ! -x "${BUILD_DIR}/bench/bench_shard" ]]; then
  cmake -B "${BUILD_DIR}" -S .
  cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target bench_server bench_shard
fi

SNAPSHOT="$(mktemp)"
SHARD_SNAPSHOT="$(mktemp)"
trap 'rm -f "${SNAPSHOT}" "${SHARD_SNAPSHOT}"' EXIT
"${BUILD_DIR}/bench/bench_server" --statusz > "${SNAPSHOT}"
"${BUILD_DIR}/bench/bench_shard" --statusz > "${SHARD_SNAPSHOT}"

python3 - "${SNAPSHOT}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def need(cond, what):
    if not cond:
        sys.exit(f"statusz_check: FAIL — {what}")

# Single-node shape: a shard identity block, explicitly standalone.
shard = doc.get("shard")
need(isinstance(shard, dict), "missing shard identity block")
need(shard.get("id") == "", "single-node server carries a shard id")
need(shard.get("role") == "standalone",
     f"single-node role is {shard.get('role')!r}, want 'standalone'")

# Memory-tracker tree: rooted at "server", recursive children, and every
# node carries the accounting quadruple.
mem = doc.get("memory")
need(isinstance(mem, dict), "missing memory tree")
need(mem.get("name") == "server", "memory root not named 'server'")
def walk(node, depth=0):
    for key in ("name", "used", "peak", "soft_limit", "hard_limit",
                "children"):
        need(key in node, f"tracker node {node.get('name')!r} missing {key}")
    need(node["peak"] >= node["used"] >= 0,
         f"tracker node {node['name']!r} has peak < used")
    for child in node["children"]:
        walk(child, depth + 1)
walk(mem)
classes = {c["name"] for c in mem["children"]}
need({"interactive", "analytic"} <= classes,
     f"memory tree missing class nodes (got {sorted(classes)})")

# Per-class SLO state with the burn-rate math surfaced.
slo = doc.get("slo")
need(isinstance(slo, dict), "missing slo section")
for cls in ("interactive", "analytic"):
    s = slo.get(cls)
    need(isinstance(s, dict), f"missing slo[{cls}]")
    for key in ("target_micros", "objective", "window_total", "window_good",
                "window_bad", "compliance", "burn_rate", "total"):
        need(key in s, f"slo[{cls}] missing {key}")
    need(0.0 <= s["compliance"] <= 1.0, f"slo[{cls}] compliance out of range")

# Admission occupancy, scheduler slots, per-class serving counters.
adm = doc.get("admission")
need(isinstance(adm, dict), "missing admission section")
for cls in ("interactive", "analytic"):
    a = adm.get(cls)
    need(isinstance(a, dict), f"missing admission[{cls}]")
    for key in ("queue_depth", "queue_capacity", "admitted", "shed"):
        need(key in a, f"admission[{cls}] missing {key}")

sched = doc.get("scheduler")
need(isinstance(sched, dict), "missing scheduler section")
for key in ("total_slots", "free_slots", "running", "paused"):
    need(key in sched, f"scheduler missing {key}")
need(sched["free_slots"] == sched["total_slots"],
     "drained server should have every slot free")

cls_section = doc.get("classes")
need(isinstance(cls_section, dict), "missing classes section")
for cls in ("interactive", "analytic"):
    c = cls_section.get(cls)
    need(isinstance(c, dict), f"missing classes[{cls}]")
    for key in ("admitted", "shed", "memory_shed", "completed", "failed",
                "memory_aborted", "cancelled", "deadline_missed"):
        need(key in c, f"classes[{cls}] missing {key}")
need(cls_section["interactive"]["completed"] > 0,
     "statusz workload completed no interactive requests")

# TraceStore totals match the served workload.
ts = doc.get("trace_store")
need(isinstance(ts, dict), "missing trace_store section")
for key in ("recorded", "dropped", "slow"):
    need(key in ts, f"trace_store missing {key}")
need(ts["recorded"] > 0, "trace_store recorded nothing")

# Adaptive-planning surfaces: plan cache counters, calibrator coefficients,
# and the per-class controller snapshot.
pc = doc.get("plan_cache")
need(isinstance(pc, dict), "missing plan_cache section")
for key in ("entries", "variants", "capacity", "hits", "rebinds", "misses",
            "invalidations", "installs", "variant_evictions"):
    need(key in pc, f"plan_cache missing {key}")
need(pc["installs"] >= pc["entries"], "plan_cache entries exceed installs")

cal = doc.get("cost_calibrator")
need(isinstance(cal, dict), "missing cost_calibrator section")
for key in ("observations", "updates", "version", "coefficients"):
    need(key in cal, f"cost_calibrator missing {key}")
need(cal["version"] == 0,
     "virtual-clock workload moved cost coefficients (determinism break)")
coeffs = cal["coefficients"]
for key in ("seq_scan_row", "index_probe", "hash_build_row", "hash_probe_row",
            "nested_loop_row", "encoded_scan_discount"):
    need(key in coeffs, f"cost_calibrator coefficients missing {key}")

ada = doc.get("adaptive")
need(isinstance(ada, dict), "missing adaptive section")
for key in ("enabled", "decisions", "steps_down", "steps_up",
            "last_p99_micros", "analytic"):
    need(key in ada, f"adaptive missing {key}")
need("parallelism" in ada["analytic"], "adaptive.analytic missing parallelism")

# Continuous-telemetry surfaces: the timeline ring summaries, the alert
# engine's rule/transition state, and the derived per-subsystem health.
tl = doc.get("timeline")
need(isinstance(tl, dict), "missing timeline section")
need(tl.get("enabled") is True, "telemetry not enabled in statusz workload")
need(tl.get("sample_interval_micros", 0) > 0, "bad sample_interval_micros")
need(tl.get("samples", 0) > 0, "sampler never ran during statusz workload")
series = tl.get("series")
need(isinstance(series, list) and len(series) > 0, "timeline has no series")
for s in series:
    for key in ("name", "points", "observed", "first_t", "last_t", "last",
                "min", "max", "mean"):
        need(key in s, f"timeline series {s.get('name')!r} missing {key}")
    need(s["observed"] >= s["points"] >= 1,
         f"timeline series {s['name']!r} observed < retained points")
    need(s["last_t"] >= s["first_t"],
         f"timeline series {s['name']!r} timestamps inverted")
series_names = {s["name"] for s in series}
need("slo.interactive.burn_rate" in series_names,
     "timeline lacks the interactive burn-rate series")
need("memory.pressure_pct" in series_names,
     "timeline lacks the memory pressure series")

al = doc.get("alerts")
need(isinstance(al, dict), "missing alerts section")
need(isinstance(al.get("firing"), int), "alerts.firing is not an int")
rules = al.get("rules")
need(isinstance(rules, list) and len(rules) > 0, "alert engine has no rules")
for r in rules:
    for key in ("name", "kind", "series", "subsystem", "severity", "state",
                "fired", "resolved"):
        need(key in r, f"alert rule {r.get('name')!r} missing {key}")
    need(r["state"] in ("inactive", "pending", "firing"),
         f"alert rule {r['name']!r} has unknown state {r['state']!r}")
need({"interactive_burn", "memory_pressure"} <=
     {r["name"] for r in rules}, "default alert rules missing")
need(isinstance(al.get("transitions"), list), "alerts missing transitions")

health = doc.get("health")
need(isinstance(health, dict), "missing health section")
need(health.get("overall") in ("healthy", "degraded", "critical"),
     f"bad overall health {health.get('overall')!r}")
subs = health.get("subsystems")
need(isinstance(subs, dict), "missing health.subsystems")
for sub in ("admission", "scheduler", "plan_cache", "memory", "serving"):
    need(subs.get(sub) in ("healthy", "degraded", "critical"),
         f"health.subsystems missing or bad {sub!r}")
need(health["overall"] == "healthy",
     "drained statusz workload should end healthy")

print("statusz_check: OK —",
      f"{cls_section['interactive']['completed']} interactive +",
      f"{cls_section['analytic']['completed']} analytic served,",
      f"{ts['recorded']} traces, plan cache {pc['hits']}/{pc['installs']}",
      f"hits/installs, root peak {mem['peak']} bytes,",
      f"{len(series)} timeline series / {tl['samples']} samples,",
      f"{len(rules)} alert rules, health {health['overall']}")
EOF

python3 - "${SHARD_SNAPSHOT}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def need(cond, what):
    if not cond:
        sys.exit(f"statusz_check (sharded): FAIL — {what}")

router = doc.get("router")
need(isinstance(router, dict), "missing router section")
shards = router.get("num_shards")
replicas = router.get("replicas_per_shard")
need(isinstance(shards, int) and shards >= 1, "bad num_shards")
need(isinstance(replicas, int) and replicas >= 1, "bad replicas_per_shard")

# Routing decision counters: the workload must have exercised the router.
dec = router.get("decisions")
need(isinstance(dec, dict), "missing decisions block")
for key in ("routed", "scatter", "broadcast", "fallback", "failed"):
    need(key in dec, f"decisions missing {key}")
need(dec["failed"] == 0, "router recorded failed requests")
need(sum(dec[k] for k in ("routed", "scatter", "broadcast", "fallback")) > 0,
     "router served nothing")

# Topology: contiguous interval ranges covering the pre axis from 0, each
# shard carrying its fan-out counters and fully-identified replicas.
topo = router.get("topology")
need(isinstance(topo, list) and len(topo) == shards,
     f"topology has {len(topo) if isinstance(topo, list) else '?'} shards, "
     f"want {shards}")
expect_lo = 0
for s, entry in enumerate(topo):
    need(entry.get("shard") == s, f"shard {s} out of order")
    need(entry.get("pre_lo") == expect_lo,
         f"shard {s} range starts at {entry.get('pre_lo')}, want {expect_lo}")
    need(entry["pre_hi"] >= entry["pre_lo"], f"shard {s} range inverted")
    expect_lo = entry["pre_hi"] + 1
    need(entry.get("leaves", 0) >= 1, f"shard {s} owns no leaves")
    for key in ("sub_requests", "shed", "deadline_missed", "failovers",
                "hop_cost_micros"):
        need(key in entry, f"shard {s} missing {key}")
    reps = entry.get("replicas")
    need(isinstance(reps, list) and len(reps) == replicas,
         f"shard {s} has wrong replica count")
    for r, rep in enumerate(reps):
        need(rep.get("id") == f"s{s}r{r}", f"replica {s}/{r} misidentified")
        need(rep.get("down") is False, f"replica {s}/{r} marked down")
        need(rep.get("health") in ("healthy", "degraded", "critical"),
             f"replica {s}/{r} health is {rep.get('health')!r}")
        inner = rep.get("statusz")
        need(isinstance(inner, dict), f"replica {s}/{r} missing statusz")
        need(inner.get("shard", {}).get("id") == f"s{s}r{r}",
             f"replica {s}/{r} server snapshot lacks its shard id")
        need(inner.get("shard", {}).get("role") == "replica",
             f"replica {s}/{r} server role is not 'replica'")
        need("memory" in inner and "scheduler" in inner,
             f"replica {s}/{r} snapshot not a full server statusz")
        # Every replica carries the full telemetry surface: its own
        # timeline, alert engine, and derived health rollup.
        need(inner.get("timeline", {}).get("enabled") is True,
             f"replica {s}/{r} snapshot lacks an enabled timeline")
        need(isinstance(inner.get("alerts", {}).get("rules"), list),
             f"replica {s}/{r} snapshot lacks alert rules")
        need(inner.get("health", {}).get("overall") == rep.get("health"),
             f"replica {s}/{r} top-level health disagrees with its rollup")
total_subs = sum(e["sub_requests"] for e in topo)
need(total_subs > 0, "no sub-requests reached any shard")

coord = router.get("coordinator")
need(isinstance(coord, dict), "missing coordinator snapshot")
need(coord.get("shard", {}).get("id") == "coord",
     "coordinator snapshot lacks its identity")

print("statusz_check (sharded): OK —",
      f"{shards}x{replicas} topology, pre axis [0,{expect_lo - 1}],",
      f"{total_subs} sub-requests,",
      f"decisions {dec['routed']}/{dec['scatter']}/{dec['broadcast']}/"
      f"{dec['fallback']} routed/scatter/broadcast/fallback")
EOF
