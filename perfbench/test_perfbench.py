#!/usr/bin/env python3
"""Reconciliation tests for the simulator benchmark, at tiny horizons.

    python3 perfbench/test_perfbench.py

Builds dsf_perfbench the way run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and checks that run.py emits every metric BENCHMARK.json
declares, with its unit; that search-begin and search-end records pair up;
that the traced send count equals the untraced ledger's; that the event
queue's cancelled count is non-negative; that repeats at one seed give one
fingerprint; and that a tree without the simulator sources fails.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCALE = 0.02  # 96 h -> ~2 h: every workload runs in about a second
SEED = 7
GNUTELLA = ("paper_dynamic", "static_50k", "overload_certified")


def invoke(workload, trace):
    """Runs run.py in-process; returns (report, result) from its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(SEED),
                       "--seconds", "1", "--trace", str(trace),
                       "--horizon-scale", str(SCALE)])
    assert rc == 0, f"run.py exited {rc}"
    lines = out.getvalue().splitlines()
    report = json.loads(lines[-2].removeprefix("report: "))
    return report, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
        for w in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[w, trace] = invoke(w, trace)

    def test_every_metric_is_emitted_with_its_unit(self):
        for (w, trace), (_, result) in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in self.declared[trace]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for v in result["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics_are_positive(self):
        for w in run.WORKLOADS:
            _, result = self.results[w, 0]
            for name, v in result["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(v["value"], 0)

    def test_search_spans_pair_up(self):
        for w in run.WORKLOADS:
            report, _ = self.results[w, 1]
            search = report["samples"][1]["search"]
            with self.subTest(workload=w):
                self.assertGreater(search["spans"], 0)
                self.assertEqual(search["begins"], search["ends"])
                self.assertEqual(search["begins"], search["spans"])
                self.assertEqual(search["unpaired"], 0)

    def test_traced_sends_equal_ledger_messages(self):
        for w in GNUTELLA:
            report, result = self.results[w, 1]
            with self.subTest(workload=w):
                self.assertEqual(report["samples"][1]["search"]["sends"],
                                 result["metrics"]["net.messages"]["value"])
                self.assertEqual(
                    result["metrics"]["trace.send_mismatch"]["value"], 0)

    @unittest.expectedFailure
    def test_framework_mix_traced_sends_equal_ledger_messages(self):
        # Known accounting gap in the program: webcache and olap count an
        # invitation and an eviction per list change without transmitting
        # them, and diglib transmits exploration pings it never counts.
        _, result = self.results["framework_mix", 1]
        self.assertEqual(result["metrics"]["trace.send_mismatch"]["value"], 0)

    def test_cancelled_events_are_not_negative(self):
        for w in run.WORKLOADS:
            _, result = self.results[w, 1]
            with self.subTest(workload=w):
                self.assertGreaterEqual(
                    result["metrics"]["des.cancelled"]["value"], 0)

    def test_traced_run_replays_the_untraced_trajectory(self):
        for w in run.WORKLOADS:
            report, _ = self.results[w, 1]
            untraced, traced = report["samples"][0], report["samples"][1]
            with self.subTest(workload=w):
                self.assertEqual(untraced["fingerprint"],
                                 traced["fingerprint"])

    def test_repeats_give_one_fingerprint(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = run.spawn(self.binary, w, SEED, "run", SCALE)
                b = run.spawn(self.binary, w, SEED, "run", SCALE)
                c = run.spawn(self.binary, w, SEED + 1, "run", SCALE)
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertNotEqual(a["fingerprint"], c["fingerprint"])

    def test_overload_certified_is_checked_clean(self):
        report, result = self.results["overload_certified", 1]
        m = result["metrics"]
        self.assertGreater(m["checker.events"]["value"], 0)
        self.assertEqual(m["checker.violations"]["value"], 0)
        self.assertGreater(m["load.refused"]["value"], 0)
        self.assertGreater(m["recorder.records"]["value"], 0)
        self.assertGreater(m["adversary.abuse_queries"]["value"], 0)

    def test_tree_without_sources_fails_without_a_result(self):
        tree = run.build_dir() / "selftest-no-sources"
        shutil.rmtree(tree, ignore_errors=True)
        (tree / "perfbench").mkdir(parents=True)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, tree / "perfbench" / f.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", tree)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "paper_dynamic", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=tree, capture_output=True, text=True, timeout=170,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(tree, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
