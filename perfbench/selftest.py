"""Self-test of the benchmark itself (not of thetadim).

    python3 perfbench/selftest.py

Covers: a wrong reference is scored as a failed operation and never
raised; two traced runs give identical per-layer counts; a traced run
whose passes lack the workload's property is incorrect; the scaling of
times to the reference speed; the tail and spread statistics; the refusal to run without the program's sources; and
that every seeded input has a committed reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


class WrongReferenceTest(unittest.TestCase):
    def test_wrong_value_is_a_failed_operation(self):
        import thetadim

        _, error = worker.timed_lookup(thetadim, ("sl", 2, 2, 0, 2), 10)
        self.assertIsNone(error)
        _, error = worker.timed_lookup(thetadim, ("sl", 2, 2, 0, 2), 11)
        self.assertIn("got 10, expected 11", error)

    def test_raising_operation_is_a_failed_operation(self):
        import thetadim

        _, error = worker.timed_lookup(thetadim, ("sl", 0, 2, 0, 1), 1)
        self.assertIn("ValueError", error)

    def test_pass_counts_the_wrong_reference(self):
        refs = {"lookup-wide": {(2, 2, 1): (4, 1), (2, 2, 2): (11, 11)}}
        original = W.load_lookup_refs
        W.load_lookup_refs = lambda: refs
        try:
            spec = {"workload": "lookup-wide", "seed": 5, "trace": False,
                    "setup_only": False, "launched": time.monotonic()}
            result = worker.lookup_pass(spec)
        finally:
            W.load_lookup_refs = original
        self.assertEqual(len(result["latencies"]), 2)
        self.assertEqual(len(result["errors"]), 1)
        self.assertEqual(result["unexpected"], 1)

    def test_cli_scoring(self):
        argv = ["dim", "sl", "-g", "2", "-n", "2", "-d", "0", "-k", "1"]
        self.assertIsNone(worker.score_cli(argv, 0, b"4\n", (0, b"4\n")))
        self.assertIn("exit 1", worker.score_cli(argv, 1, b"4\n", (0, b"4\n")))
        self.assertIn("stdout", worker.score_cli(argv, 0, b"5\n", (0, b"4\n")))


class TracedCountsTest(unittest.TestCase):
    def traced_counts(self, workload, seed, limit):
        result = run.run_worker({"workload": workload, "seed": seed, "trace": True,
                                 "setup_only": False, "limit": limit})
        metrics = tracer.layer_metrics(tracer.merge([result["trace"]]))
        return {name: value for name, value in metrics.items() if not name.endswith("_s")}

    def test_two_traced_runs_agree_on_counts(self):
        for workload, limit in (("lookup-deep", 4), ("cli-session", 8)):
            first = self.traced_counts(workload, 11, limit)
            second = self.traced_counts(workload, 11, limit)
            self.assertEqual(first, second, workload)
            self.assertGreater(first["intervals.evaluate_sum.calls"], 0, workload)


class PropertyTest(unittest.TestCase):
    def traced_run(self, workload):
        """A traced run of `workload` whose passes are in fact short lookup-wide passes."""
        original = run.run_worker
        run.run_worker = lambda spec: original(dict(spec, workload="lookup-wide", limit=3))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", "1"])
        finally:
            run.run_worker = original
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_pass_without_the_property_is_incorrect(self):
        # Lookup-wide sums certify at 64 bits, so as lookup-deep passes they
        # lack the deep workload's property although every value is right.
        code, result = self.traced_run("lookup-deep")
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["workload.property_share"]["value"], 0.0)
        self.assertFalse(result["correct"])
        self.assertEqual(code, 1)

    def test_pass_with_the_property_is_correct(self):
        code, result = self.traced_run("lookup-wide")
        self.assertEqual(result["metrics"]["workload.property_share"]["value"], 1.0)
        self.assertTrue(result["correct"])
        self.assertEqual(code, 0)


class ReferenceSpeedTest(unittest.TestCase):
    def test_times_scale_with_the_chunks_on_either_side(self):
        c = run.CAL_REF_S["loop"]
        result = run.at_reference_speed(
            {"setup_s": 0.3, "cal_kind": "loop", "cal": [2 * c, 2 * c, 4 * c],
             "latencies": [1.0, 3.0],
             "cpus": [0.5, 1.5]})
        self.assertAlmostEqual(result["scale"], 0.5)
        self.assertEqual(result["latencies_ref"], [0.5, 1.0])
        self.assertAlmostEqual(result["wall_s"], 1.5)
        self.assertAlmostEqual(result["cpu_s"], 0.75)


class StatsTest(unittest.TestCase):
    def test_tail_leaves_exactly_ten_samples_beyond(self):
        rng = random.Random(3)
        for n in (11, 12, 34, 36, 48, 100):
            values = [rng.random() for _ in range(n)]
            value = stats.percentile(values, stats.tail_percentile(n))
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertIn(value, values)

    def test_percentile_interpolates_linearly(self):
        values = [float(v) for v in range(1, 41)]
        self.assertEqual(stats.tail_percentile(40), 100 * 29 / 39)
        self.assertAlmostEqual(stats.percentile(values, stats.tail_percentile(40)), 30.0)
        self.assertEqual(stats.percentile(values, 50), statistics.median(values))
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0, 4.0], 50), 2.5)
        self.assertEqual(stats.percentile([5.0], 90), 5.0)

    def test_tail_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(10)

    def test_relative_iqr(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_iqr(values), (q3 - q1) / q2)


class InputsTest(unittest.TestCase):
    def test_every_drawn_input_has_a_reference(self):
        refs = W.load_lookup_refs()
        golden = W.load_cli_golden()
        for seed in range(25):
            for workload in W.LOOKUPS:
                ops = W.lookup_ops(workload, seed, refs)
                self.assertEqual(len(set(ops)), len(ops))
                self.assertEqual(ops, W.lookup_ops(workload, seed, refs))
                for kind, g, n, d, k in ops:
                    self.assertIn((g, n, k), refs[workload])
                    self.assertEqual(d % n, 0)
                    self.assertLessEqual(abs(d), 3 * n)
            session = W.cli_session(seed)
            self.assertEqual(session, W.cli_session(seed))
            for slot, argv in session:
                self.assertIn(W.argv_key(argv), golden)

    def test_session_covers_the_cli(self):
        golden = W.load_cli_golden()
        for seed in range(25):
            argvs = [argv for _, argv in W.cli_session(seed)]
            self.assertEqual({a[0] for a in argvs} & {"dim", "check", "table", "factor"},
                             {"dim", "check", "table", "factor"})
            self.assertLessEqual(set(W.CHECKS), {a[1] for a in argvs if a[0] == "check"})
            self.assertLessEqual({"pullback", "rescale", "jacobian"},
                                 {a[1] for a in argvs if a[0] == "factor"})
            exits = {golden[W.argv_key(a)][0] for a in argvs}
            self.assertEqual(exits, {0, 1, 2, 64})

    def test_deep_values_need_high_precision(self):
        for s, _ in W.load_lookup_refs()["lookup-deep"].values():
            self.assertTrue(W.DEEP_BITS[0] <= s.bit_length() <= W.DEEP_BITS[1])


class RefusalTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lookup-wide", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
