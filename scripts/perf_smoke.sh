#!/usr/bin/env bash
# Perf-smoke gate: re-run the core-throughput benchmark and compare it
# against the committed baseline (BENCH_core_throughput.json).
#
# Per (scheduler, fleet-scale) cell:
#   * `events` and `tasks` must match the baseline EXACTLY — the engine is
#     deterministic for a fixed seed, so any drift means the event stream
#     changed, which is a correctness bug, never noise. Hard failure.
#   * `events_per_sec` below 0.75x the baseline prints a WARN line only.
#     Wall-clock depends on the host (a 4-vCPU VM runs the unchanged tree's
#     15k cells at 0.40-0.47x the committed baseline while every count
#     matches), so it cannot gate; host-time regressions are gated by the
#     perfbench medians and their BENCHMARK.json bounds instead.
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BASELINE="BENCH_core_throughput.json"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

"$BUILD_DIR/bench/bench_core_throughput" --json="$OUT" >/dev/null

if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 not found; skipped perf baseline comparison"
  exit 0
fi

python3 - "$BASELINE" "$OUT" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    baseline = {(c["scheduler"], c["workers"]): c
                for c in json.load(f)["cells"]}
with open(sys.argv[2]) as f:
    current = {(c["scheduler"], c["workers"]): c
               for c in json.load(f)["cells"]}

failed = False
for key, base in sorted(baseline.items()):
    cur = current.get(key)
    if cur is None:
        print(f"FAIL {key}: cell missing from current run")
        failed = True
        continue
    for field in ("events", "tasks"):
        if cur[field] != base[field]:
            print(f"FAIL {key}: {field} drifted {base[field]} -> "
                  f"{cur[field]} (determinism broken)")
            failed = True
    ratio = cur["events_per_sec"] / base["events_per_sec"]
    tag = "WARN" if ratio < 0.75 else "ok  "
    print(f"{tag} {key}: events={cur['events']} tasks={cur['tasks']} "
          f"events/sec {ratio:.2f}x baseline")

sys.exit(1 if failed else 0)
PY

echo "perf smoke ok"
