#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_run.py

The unit tests cover run.py's bookkeeping; the end-to-end ones build the
replay binary and run the 200-worker selftest-tiny workload, including
deliberately failing replays (replay.cc --fault), which must be counted as
failed jobs without stopping the run.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_replay(fingerprint, mode="plain", jobs=10, errors=None):
    return run.Replay(mode, jobs, list(errors or []),
                      cells={"outcome": {"fingerprint": fingerprint}})


def invoke(*args):
    """(exit status, stdout lines, result object) of run.main(args)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(list(args))
    lines = out.getvalue().splitlines()
    return status, lines, json.loads(lines[-1])


class BookkeepingTest(unittest.TestCase):
    def test_matching_fingerprints_pass(self):
        self.assertIsNone(run.fingerprint_mismatch(
            fake_replay("00ff"), fake_replay("00ff", "traced")))

    def test_differing_fingerprints_fail(self):
        err = run.fingerprint_mismatch(fake_replay("00ff"),
                                       fake_replay("0100", "traced"))
        self.assertIn("0100", err)
        self.assertIn("00ff", err)

    def test_failed_replay_fails_all_its_jobs(self):
        replays = [fake_replay("a", jobs=800),
                   fake_replay("b", jobs=800, errors=["boom"]),
                   fake_replay("c", jobs=0)]
        self.assertEqual(run.tally(replays), (1600, 800))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        self.assertEqual(run.tail_percentile(list(range(20))), (50.0, 9))
        self.assertEqual(run.tail_percentile(list(range(100))), (90.0, 89))

    def test_trace_seeds_are_distinct_per_seed(self):
        first = {run.trace_seed(7, i) for i in range(run.MAX_TRACE_SEEDS)}
        second = {run.trace_seed(8, i) for i in range(run.MAX_TRACE_SEEDS)}
        self.assertEqual(len(first), run.MAX_TRACE_SEEDS)
        self.assertTrue(first.isdisjoint(second))

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                [(name, unit, better) for name, unit, better, _ in table])


class EndToEndTest(unittest.TestCase):
    def test_clean_untraced_run(self):
        status, lines, result = invoke("--workload", "selftest-tiny",
                                       "--seed", "3", "--seconds", "1",
                                       "--trace", "0")
        self.assertEqual(status, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m[0] for m in run.END_TO_END])
        self.assertTrue(all(m["value"] > 0
                            for m in result["metrics"].values()))
        self.assertTrue(any(l.startswith("manifest: ") for l in lines))

    def test_traced_run_matches_untraced_fingerprint(self):
        status, lines, result = invoke("--workload", "selftest-tiny",
                                       "--seed", "3", "--seconds", "1",
                                       "--trace", "1")
        self.assertEqual(status, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]),
                         [m[0] for m in run.PER_LAYER])
        self.assertGreater(result["metrics"]["obs.events.task_start"]["value"],
                           0)

    def test_failed_check_counts_every_job_as_failed(self):
        status, lines, result = invoke("--workload", "selftest-tiny",
                                       "--seed", "3", "--seconds", "1",
                                       "--trace", "0", "--fault", "check")
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("trace task count" in l for l in lines))

    def test_aborting_replays_do_not_stop_the_run(self):
        status, lines, result = invoke("--workload", "selftest-tiny",
                                       "--seed", "3", "--seconds", "1",
                                       "--trace", "0", "--fault", "abort")
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], run.SIM_SEEDS * 800)
        self.assertEqual(result["attempted"] % 800, 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("--fault=abort" in l for l in lines))


if __name__ == "__main__":
    unittest.main()
