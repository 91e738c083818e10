#!/usr/bin/env python3
"""Repository benchmark of the Phoenix simulator.

    python3 perfbench/run.py --workload paper-15k --seed 1 --seconds 36 --trace 0

Builds the replay binary (perfbench/CMakeLists.txt compiles replay.cc over
the simulator sources in src/) into .bench_build/perfbench, then replays
the workload once per trace seed, one child process per replay. Trace
seeds derive from --seed (seed*16 + i); each seeds the trace, the fleet and
the scheduler. A run always replays the first few of them (SIM_SEEDS, or
TRACED_SIM_SEEDS when traced), and more while --seconds last (at most 16).

--trace 0 prints the end-to-end metrics, measured with tracing off. Host
timings are medians over every replay of the run (set-up also over one
set-up-only replay per trace seed); simulated metrics are means over
those first trace seeds, so they repeat exactly for a --seed. --trace 1
replays each trace seed untraced and then traced, and prints the per-layer
metrics the same way.

Each replay checks its own outcome (see replay.cc), and a traced replay
must reach the fingerprint of its untraced partner. A replay that fails a
check, crashes or times out counts all its jobs as failed and the run goes
on. The last stdout line is the JSON result, preceded by a table of every
metric and the run manifest. Exit status: 0 when every check held, 1 when
one failed, 2 when the arguments or the build failed (no result printed).

Self-tests: python3 perfbench/test_run.py
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "phoenix_replay"

WORKLOADS = ("paper-15k", "packed-powered", "lossy-sharded")
# A 200-worker fleet for the self-tests; not a benchmark workload.
SELFTEST_WORKLOAD = "selftest-tiny"
# Trace seeds every untraced (traced) run replays, which the simulated
# metrics average over, and the most a run replays while --seconds last.
SIM_SEEDS = 4
TRACED_SIM_SEEDS = 2
MAX_TRACE_SEEDS = 16
# Measurement stops this long after the build, so a run ends within 180 s.
RUN_BUDGET_S = 165.0
# Fields of the replay config that describe the build, not the workload.
BUILD_FIELDS = ("build_type", "compiler", "sanitizer", "optimized", "nproc")


class BuildError(Exception):
    pass


def build():
    """Configures (once) and builds the replay binary; returns its path."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        _run_tool(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    _run_tool(["cmake", "--build", str(BUILD_DIR), "--target", "phoenix_replay",
               "-j", jobs])
    return BINARY


def _run_tool(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError(f"{' '.join(cmd)} exited {proc.returncode}")


def sim_seeds(traced):
    return TRACED_SIM_SEEDS if traced else SIM_SEEDS


def trace_seed(seed, i):
    """The i-th trace seed of a run: a function of --seed only."""
    return seed * MAX_TRACE_SEEDS + i


def number(value):
    """Replays print full-precision doubles as strings."""
    return float(value) if isinstance(value, str) else value


@dataclass
class Replay:
    """What one child process reported."""
    mode: str
    jobs: int  # jobs the replay attempted
    errors: list = field(default_factory=list)  # empty when it passed
    config: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)  # group -> fields

    @property
    def ok(self):
        return not self.errors

    def get(self, group, key):
        return number(self.cells[group][key])

    def setup_ns(self):
        return sum(self.get("timing", k)
                   for k in ("trace_ns", "cluster_ns", "sched_setup_ns"))


def run_replay(binary, workload, seed, mode, jobs, timeout, fault="none"):
    """Runs one replay child and parses its report; never raises on failure.

    `jobs` is what the replay attempts: a failed replay counts that many."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}", f"--fault={fault}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Replay(mode, jobs, [f"{mode} replay of seed {seed} timed out"])
    errors = []
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        errors.append(f"{mode} replay of seed {seed} exited "
                      f"{proc.returncode}: {tail[0]}")
    try:
        doc = json.loads(out)
    except ValueError:
        return Replay(mode, jobs,
                      errors or [f"{mode} replay of seed {seed} printed no "
                                 "report"])
    cells = {cell["group"]: cell for cell in doc["cells"]}
    checks = cells.get("checks", {})
    errors += [v for k, v in sorted(checks.items()) if k.startswith("failure_")]
    return Replay(mode, jobs, errors, doc["config"], cells)


def fingerprint_mismatch(untraced, traced):
    """Error text when a traced replay simulated another outcome than its
    untraced partner; None when they agree."""
    a = untraced.cells["outcome"]["fingerprint"]
    b = traced.cells["outcome"]["fingerprint"]
    if a == b:
        return None
    return f"traced replay fingerprint {b} != untraced replay fingerprint {a}"


def tally(replays):
    """(attempted, failed) jobs: a failed replay fails all its jobs."""
    attempted = sum(r.jobs for r in replays)
    failed = sum(r.jobs for r in replays if not r.ok)
    return attempted, failed


@dataclass
class Run:
    """Every replay one invocation made, by trace seed."""
    seeds: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setups: list = field(default_factory=list)

    def all(self):
        return self.plain + self.traced + self.setups


def measure(binary, workload, seed, seconds, traced, budget_end,
            fault="none"):
    """Replays trace seeds: always the first sim_seeds(traced), then more
    while the next would still end within `seconds`. Per trace seed: a
    set-up-only replay and an untraced one, then a traced one if traced. A
    set-up-only replay attempts no job, but a failed one counts the jobs
    the seed's replay attempts."""
    start = time.monotonic()
    run = Run()
    for i in range(MAX_TRACE_SEEDS):
        round_start = time.monotonic()
        s = trace_seed(seed, i)
        run.seeds.append(s)

        def replay(mode, jobs, s=s):
            timeout = budget_end - time.monotonic()
            return run_replay(binary, workload, s, mode, jobs, timeout, fault)

        setup = replay("setup", 0)
        jobs = int(setup.config.get("jobs", 1))
        setup.jobs = 0 if setup.ok else jobs
        run.setups.append(setup)
        run.plain.append(replay("plain", jobs))
        if traced:
            run.traced.append(replay("traced", jobs))
            partner = run.plain[-1]
            if partner.ok and run.traced[-1].ok:
                err = fingerprint_mismatch(partner, run.traced[-1])
                if err:
                    run.traced[-1].errors.append(err)
        now = time.monotonic()
        if now > budget_end or (i + 1 >= sim_seeds(traced) and
                                now + (now - round_start) > start + seconds):
            break
    return run


# ---- Metrics --------------------------------------------------------------

def tail_percentile(values):
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None with ten or fewer samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # sorted index with exactly ten samples above it
    return 100.0 * (k + 1) / n, sorted(values)[k]


@dataclass
class Stat:
    """A metric's value and how it was formed: a median over per-replay
    `samples` (host timings) or a mean over `seeds` trace seeds."""
    value: float
    samples: list = None
    seeds: int = 0

    def describe(self):
        if self.samples is None:
            return f"mean over {self.seeds} trace seeds"
        text = f"median of n={len(self.samples)}"
        tail = tail_percentile(self.samples)
        if tail is None:
            return text + "; n <= 10, no tail percentile"
        pct, value = tail
        return text + f"; p{pct:.0f}={value:.6g}"


def host(replays, fn):
    """Median over replays of a host measurement."""
    values = [fn(r) for r in replays]
    return Stat(statistics.median(values), values)


def simulated(replays, fn):
    """Mean over trace seeds of a simulated value (exact per seed)."""
    values = [fn(r) for r in replays]
    return Stat(statistics.fmean(values), seeds=len(values))


def ratio(num, den):
    return num / den if den else 0.0


class Samples:
    """The passing replays of a run, grouped for the metric tables."""

    def __init__(self, run):
        self.plain = [r for r in run.plain if r.ok]
        self.traced = [r for r in run.traced if r.ok]
        # Simulated values come from the trace seeds every run replays.
        self.sim_plain = [r for r in run.plain[:SIM_SEEDS] if r.ok]
        self.sim_traced = [r for r in run.traced[:TRACED_SIM_SEEDS] if r.ok]
        self.setups = [r for r in run.setups if r.ok] + self.plain
        self.pairs = [(p, t) for p, t in zip(run.plain, run.traced)
                      if p.ok and t.ok]
        attempted, failed = tally(run.all())
        self.error_rate = ratio(failed, attempted)

    def outcome(self, key, traced=False):
        return simulated(self.sim_traced if traced else self.sim_plain,
                         lambda r: r.get("outcome", key))

    def counts(self, fn):
        """Mean over the traced replays of fn(counter getter)."""
        return simulated(self.sim_traced,
                         lambda r: fn(lambda key: r.get("counters", key)))

    def span(self, key):
        return host(self.traced, lambda r: r.get("timing", key) * 1e-9)

    def hot(self, key):
        return host(self.traced, lambda r: r.get("hot_calls", key))


END_TO_END = [
    # name, unit, better, fn(samples) -> Stat
    ("wall_s", "s", "lower",
     lambda s: host(s.plain, lambda r: r.get("timing", "wall_ns") * 1e-9)),
    ("setup_s", "s", "lower",
     lambda s: host(s.setups, lambda r: r.setup_ns() * 1e-9)),
    ("events_per_s", "1/s", "higher",
     lambda s: host(s.plain, lambda r: r.get("outcome", "events_fired") /
                    (r.get("timing", "drain_ns") * 1e-9))),
    ("tasks_per_s", "1/s", "higher",
     lambda s: host(s.plain, lambda r: r.get("outcome", "tasks") /
                    (r.get("timing", "wall_ns") * 1e-9))),
    ("peak_rss_mb", "MB", "lower",
     lambda s: host(s.plain, lambda r: r.get("timing", "peak_rss_kb") / 1024)),
    ("short_p50_response_sim_s", "sim_s", "lower",
     lambda s: s.outcome("short_p50_response_sim_s")),
    ("short_p99_response_sim_s", "sim_s", "lower",
     lambda s: s.outcome("short_p99_response_sim_s")),
    ("long_p90_response_sim_s", "sim_s", "lower",
     lambda s: s.outcome("long_p90_response_sim_s")),
]


def _count(key):
    return lambda s: s.counts(lambda c: c(key))


def _count_ratio(num, *den):
    return lambda s: s.counts(lambda c: ratio(c(num), sum(c(k) for k in den)))


def _count_sum(*keys):
    return lambda s: s.counts(lambda c: sum(c(k) for k in keys))


# Event types that fire on at least one workload; the rest never do here.
OBS_EVENTS = (
    "job_arrival", "job_complete", "admission_relax", "probe_send",
    "probe_resolve", "probe_cancel", "probe_bounce", "task_start",
    "task_complete", "sticky_fetch", "steal", "crv_reorder", "crv_snapshot",
    "heartbeat", "msg_send", "msg_deliver", "msg_drop", "msg_expire",
    "rpc_retry", "gossip_publish", "gossip_apply", "fed_bind_send",
    "fed_bind_accept", "fed_bind_reject", "power_state", "power_dvfs",
    "pack_capacity", "pack_claim", "pack_release", "gang_reserve",
    "gang_commit", "malleable_width", "dag_ready", "dag_release",
    "deadline_miss",
)

PER_LAYER = [
    # name, unit, better, fn(samples) -> Stat
    ("trace.generate_s", "s", "lower", lambda s: s.span("trace_ns")),
    ("cluster.build_s", "s", "lower", lambda s: s.span("cluster_ns")),
    ("sched.setup_s", "s", "lower", lambda s: s.span("sched_setup_ns")),
    ("sim.drain_s", "s", "lower", lambda s: s.span("drain_ns")),
    ("metrics.report_s", "s", "lower", lambda s: s.span("report_ns")),
    ("sim.events_fired", "count", "lower",
     lambda s: s.outcome("events_fired", traced=True)),
    ("sim.events_per_task", "events/task", "lower",
     lambda s: simulated(s.sim_traced, lambda r: ratio(
         r.get("outcome", "events_fired"), r.get("outcome", "tasks")))),
    ("sim.ns_per_event", "ns", "lower",
     lambda s: host([p for p, _ in s.pairs], lambda r: ratio(
         r.get("timing", "drain_ns"), r.get("outcome", "events_fired")))),
    ("sched.probes_sent", "count", "lower", _count("probes_sent")),
    ("sched.probe_cancel_ratio", "ratio", "lower",
     _count_ratio("probes_cancelled", "probes_sent")),
    ("sched.tasks_stolen", "count", "lower", _count("tasks_stolen")),
    ("sched.heartbeats", "count", "lower", _count("heartbeats")),
    ("sched.dead_fallbacks", "count", "lower",
     _count("placement_dead_fallbacks")),
    ("core.crv_reorders", "count", "lower", _count("tasks_reordered_crv")),
    ("core.srpt_reorders", "count", "lower", _count("tasks_reordered_srpt")),
    ("core.reorder_rounds", "count", "lower", _count("crv_reorder_rounds")),
    ("core.soft_relaxed", "count", "lower",
     _count("soft_constraints_relaxed")),
    ("core.admission_rejected", "count", "lower",
     _count("tasks_admission_rejected")),
    ("net.messages_sent", "count", "lower", _count("net_messages_sent")),
    ("net.messages_dropped", "count", "lower", _count("net_messages_dropped")),
    ("net.messages_duplicated", "count", "lower",
     _count("net_messages_duplicated")),
    ("net.messages_expired", "count", "lower", _count("net_messages_expired")),
    ("net.rpc_retries", "count", "lower", _count("rpc_retries")),
    ("net.rpc_failures", "count", "lower", _count("rpc_failures")),
    ("net.retry_ratio", "ratio", "lower",
     _count_ratio("rpc_retries", "net_messages_sent")),
    ("federation.gossip_published", "count", "lower",
     _count("fed_gossip_published")),
    ("federation.gossip_applied", "count", "higher",
     _count("fed_gossip_applied")),
    ("federation.gossip_stale_ratio", "ratio", "lower",
     _count_ratio("fed_gossip_stale_dropped", "fed_gossip_applied",
                  "fed_gossip_stale_dropped")),
    ("federation.offloads", "count", "lower", _count("fed_offloads")),
    ("federation.cross_shard_probes", "count", "lower",
     _count("fed_cross_shard_probes")),
    ("federation.bind_reject_ratio", "ratio", "lower",
     _count_ratio("fed_bind_rejects", "fed_bind_attempts")),
    ("power.parks", "count", "lower", _count("power_parks")),
    ("power.wakes", "count", "lower", _count("power_wakes")),
    ("power.demand_wakes", "count", "lower", _count("power_demand_wakes")),
    ("power.dvfs_steps", "count", "lower",
     _count_sum("power_dvfs_raises", "power_dvfs_lowers")),
    ("power.park_vetoes", "count", "lower",
     _count_sum("power_park_vetoes_coverage", "power_park_vetoes_floor")),
    ("packing.packed_tasks", "count", "lower", _count("packed_tasks")),
    ("packing.fit_rejection_ratio", "ratio", "lower",
     _count_ratio("pack_fit_rejections", "packed_tasks",
                  "pack_fit_rejections")),
    ("packing.gang_abort_ratio", "ratio", "lower",
     _count_ratio("gang_aborts", "gang_commits", "gang_aborts")),
    ("packing.gang_retry_waits", "count", "lower", _count("gang_retry_waits")),
    ("packing.gangs_degraded", "count", "lower", _count("gangs_degraded")),
    ("packing.malleable_resizes", "count", "lower",
     _count_sum("malleable_expands", "malleable_shrinks")),
    ("workflow.dag_tasks_released", "count", "lower",
     _count("dag_tasks_released")),
    ("workflow.deadline_promotions", "count", "lower",
     _count("deadline_promotions")),
    ("workflow.deadline_misses", "count", "lower", _count("deadline_misses")),
] + [
    (f"obs.events.{name}", "count", "lower",
     lambda s, name=name: simulated(s.sim_traced,
                                    lambda r: r.get("events", name)))
    for name in OBS_EVENTS
] + [
    ("obs.tracing_overhead_s", "s", "lower",
     lambda s: host(s.pairs, lambda pt: (pt[1].get("timing", "drain_ns") -
                                         pt[0].get("timing", "drain_ns"))
                    * 1e-9)),
    ("cluster.sample_ns", "ns", "lower", lambda s: s.hot("sample_ns")),
    ("core.crv_update_ns", "ns", "lower", lambda s: s.hot("crv_update_ns")),
    ("cluster.count_admissible_ns", "ns", "lower",
     lambda s: s.hot("count_admissible_ns")),
    ("sim.schedule_fire_ns", "ns", "lower",
     lambda s: s.hot("schedule_fire_ns")),
    # Simulated outcomes too seed-sensitive (or too workload-specific) to
    # gate on: the constrained-short queueing tail and the makespan-bound
    # utilization swing 15-45% between trace seeds; joules and packing
    # efficiency are 0, and deadline attainment 1, where the workload runs
    # without power, packing or deadlines.
    ("constrained_short_p90_queue_sim_s", "sim_s", "lower",
     lambda s: s.outcome("constrained_short_p90_queue_sim_s", traced=True)),
    ("utilization", "ratio", "higher",
     lambda s: s.outcome("utilization", traced=True)),
    ("joules_per_task", "J", "lower",
     lambda s: s.outcome("joules_per_task", traced=True)),
    ("packing_efficiency", "ratio", "higher",
     lambda s: s.outcome("packing_efficiency", traced=True)),
    ("deadline_attainment", "ratio", "higher",
     lambda s: s.outcome("deadline_attainment", traced=True)),
    ("error_rate", "ratio", "lower",
     lambda s: Stat(s.error_rate, seeds=len(s.sim_traced))),
]


def compute(run, traced):
    """[(name, unit, Stat)] of the mode's metrics; [] when no replay passed."""
    s = Samples(run)
    if not (s.sim_traced if traced else s.sim_plain):
        return []
    table = PER_LAYER if traced else END_TO_END
    return [(name, unit, fn(s)) for name, unit, _, fn in table]


# ---- Manifest --------------------------------------------------------------

def git_describe():
    """`git describe` of the checkout, when it is a git work tree itself."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, check=False)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unavailable (not a git checkout)"
        desc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty", "--tags"], capture_output=True,
                              text=True, check=False)
        return desc.stdout.strip() or "unavailable"
    except OSError:
        return "unavailable (no git)"


def source_digest():
    """SHA-256 over the sources the replay binary is built from."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "bench" / "common.h"]
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def manifest(args, run):
    config = next((r.config for r in run.all() if r.config), {})
    program = {k: v for k, v in config.items()
               if k not in BUILD_FIELDS + ("seed",)}
    build_info = {k: config.get(k) for k in BUILD_FIELDS}
    comparable = (build_info["optimized"] is True and
                  build_info["sanitizer"] == "none")
    return {
        "workload": args.workload, "seed": args.seed,
        "trace_seeds": run.seeds,
        "run_seconds": args.seconds, "trace": args.trace,
        "config": program, "git_describe": git_describe(),
        "source_sha256": source_digest(), **build_info,
        "host_nproc": os.cpu_count(),
        "replays": {"plain": len(run.plain), "traced": len(run.traced),
                    "setup_only": len(run.setups)},
        "host_times_comparable": comparable,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + (SELFTEST_WORKLOAD,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault", choices=("none", "check", "abort"),
                        default="none",
                        help="self-tests only: make the replays fail")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 2 ** 58:
        parser.error("--seed must be in [0, 2^58)")

    try:
        binary = build()
    except (BuildError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    budget_end = time.monotonic() + RUN_BUDGET_S
    traced = args.trace == 1
    run = measure(binary, args.workload, args.seed, args.seconds, traced,
                  budget_end, args.fault)
    attempted, failed = tally(run.all())
    rows = compute(run, traced)
    errors = list(dict.fromkeys(e for r in run.all() for e in r.errors))
    info = manifest(args, run)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'per-layer (traced)' if traced else 'end-to-end'}  "
          f"replays {info['replays']}")
    for name, unit, stat in rows:
        print(f"  {name:36s} {stat.value:>16.6g} {unit:12s} "
              f"{stat.describe()}")
    if not traced:
        print(f"  {'error_rate':36s} {ratio(failed, attempted):>16.6g} "
              f"{'ratio':12s} {failed} of {attempted} jobs failed")
    if not info["host_times_comparable"]:
        print("  note: sanitized or unoptimised build; host-time metrics "
              "are not comparable")
    for e in errors:
        print(f"  FAILED: {e}")
    print("manifest: " + json.dumps(info, sort_keys=True))
    correct = not errors and bool(rows)
    result = {
        "correct": correct, "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": stat.value, "unit": unit}
                    for name, unit, stat in rows},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
