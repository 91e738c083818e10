#!/usr/bin/env bash
# Repo health check: configure, build, run the full test suite (every label,
# golden and the audited network chaos, multi-shard gossip, energy and
# packed gang/malleable chaos smokes of `ctest -L smoke` included), then
# smoke the observability stack (audited bench run + Chrome trace
# validity), elastic churn, multi-tenant preemption, DAG/deadline
# scheduling (audited chaos run), and core throughput (perf smoke).
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== audited bench smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR/bench/bench_fig7_phoenix_vs_eagle_short" \
  --nodes=60 --jobs=1200 --runs=1 --audit \
  --trace-out="$SMOKE_DIR/trace.json" \
  --timeseries="$SMOKE_DIR/hb.tsv" >/dev/null

if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR" <<'EOF'
import glob, json, os, sys
smoke = sys.argv[1]
# Figure 7 sweeps 3 traces x 2 schedulers x 5 fleets concurrently; each cell
# writes its own files (trace.<profile>-<scheduler>-x<multiplier>.json).
assert not os.path.exists(os.path.join(smoke, "trace.json")), \
    "a cell wrote the untagged trace path"
traces = sorted(glob.glob(os.path.join(smoke, "trace.*.json")))
assert len(traces) == 30, f"expected 30 per-cell chrome traces, got {len(traces)}"
records = 0
for path in traces:
    with open(path) as f:
        doc = json.load(f)
    assert isinstance(doc, list) and doc, f"empty chrome trace {path}"
    assert any(r.get("ph") == "X" for r in doc), f"no task slices in {path}"
    records += len(doc)


def check_rows(path, header):
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines and lines[0] == header, f"bad header in {path}"
    assert len(lines) > 1, f"no rows in {path}"


series = sorted(glob.glob(os.path.join(smoke, "hb.*.tsv")))
assert len(series) == 30, f"expected 30 per-cell timeseries, got {len(series)}"
for path in series:
    check_rows(path, "time\tmachine\tqueue_len\test_queued_work\t"
                     "wait_estimate\tcrv_marked\tbusy\tfailed")
crv = sorted(glob.glob(os.path.join(smoke, "hb.*.tsv.crv")))
assert len(crv) == 15, f"expected 15 Phoenix CRV histories, got {len(crv)}"
assert all("-phoenix-" in p for p in crv), "CRV history from a non-Phoenix cell"
for path in crv:
    check_rows(path, "time\tdim\tratio")
print(f"chrome traces ok: {len(traces)} files, {records} records; "
      f"{len(series)} timeseries and {len(crv)} CRV files ok")
EOF
else
  echo "python3 not found; skipped chrome trace JSON validation"
fi

echo "== audited churn smoke =="
# Elastic lifecycle under load: reactive scale-up/down plus heavy transient
# reclamation (5-minute mean lease lifetime) with the invariant auditor on.
# The auditor aborts the run on any lost job, any binding to a non-active
# machine, or any capacity leak — so exiting 0 is the assertion.
"$BUILD_DIR/bench/bench_ext_elasticity" \
  --nodes=48 --jobs=1200 --runs=1 --audit \
  --json="$SMOKE_DIR/elasticity.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/elasticity.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert any(c["reclamations"] > 0 for c in cells), "reclamation never engaged"
print(f"churn smoke ok: {len(cells)} audited cells, reclamation engaged")
EOF
else
  echo "churn smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== audited preemption smoke =="
# Multi-tenant sweep with the invariant auditor on: every preemption issue
# must pair with its requeue (none may outlive the run), quota-charge
# fractions must stay in [0, 1], and every job — preempted, downgraded, or
# rejected to scavenger class — must still complete.
"$BUILD_DIR/bench/bench_ext_tenancy" \
  --nodes=48 --jobs=1000 --runs=1 --audit \
  --json="$SMOKE_DIR/tenancy.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/tenancy.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert all(c["preemptions_issued"] == c["preemption_requeues"]
           for c in cells), "preemption conservation broken"
assert any(c["preemption"] and c["preemptions_issued"] > 0
           for c in cells), "preemption never engaged"
print(f"preemption smoke ok: {len(cells)} audited cells, issue==requeue")
EOF
else
  echo "preemption smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== audited dag chaos smoke =="
# DAG shapes crossed with deadline scheduling on a lossy fabric with the
# invariant auditor on: no task may start before its predecessors finish
# (precedence) and every DAG job must release exactly its task count — the
# runner aborts on any violation, so exiting 0 is the assertion. The JSON
# then proves the subsystem engaged: DAG jobs released tasks in waves and
# the EDF tie-break promoted earlier deadlines.
"$BUILD_DIR/bench/bench_ext_dag" \
  --nodes=32 --jobs=600 --runs=1 --audit \
  --net-model=lognormal --net-drop=0.02 --rpc-retries=4 \
  --json="$SMOKE_DIR/dag.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/dag.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert doc["config"]["audit"] is True, "dag smoke must run audited"
dag = [c for c in cells if c["dag_shape"] != "flat"]
assert dag and all(c["dag_jobs"] > 0 for c in dag), "DAG jobs never engaged"
assert all(c["dag_tasks_released"] >= c["dag_jobs"] for c in dag), \
    "released fewer tasks than DAG jobs"
edf = [c for c in cells if c["deadline"]]
assert edf and all(c["deadline_jobs"] > 0 for c in edf), \
    "deadline tracking never engaged"
assert any(c["deadline_promotions"] > 0 for c in edf), \
    "EDF tie-break never promoted"
assert all(0 <= c[k] <= 1 for c in edf
           for k in ("attain_prod", "attain_batch", "attain_best_effort")), \
    "attainment outside [0, 1]"
off = [c for c in cells if not c["deadline"]]
assert all(c["deadline_jobs"] == 0 and c["deadline_promotions"] == 0
           for c in off), "deadline counters moved with the gate off"
print(f"dag chaos smoke ok: {len(dag)} audited DAG cells, precedence clean, "
      "deadlines tracked, EDF promoted")
EOF
else
  echo "dag chaos smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== perf smoke =="
# Core-throughput gate: event and task counts must match the committed
# baseline exactly (determinism); events/sec ratios only warn.
scripts/perf_smoke.sh "$BUILD_DIR"

echo "== all checks passed =="
