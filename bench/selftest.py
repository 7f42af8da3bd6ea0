"""Tests of the benchmark itself (not of involution-lab).

    python3 bench/selftest.py

Run from the root of a source checkout.  Uses only cheap jobs; takes a few
seconds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
import unittest

import run

CHEAP_JOB = ["verify", "--check", "thm33"]


def golden() -> dict:
    return run.load_json(run.BENCH / "golden.json")["jobs"]


def runner(goldens: dict) -> run.Runner:
    return run.Runner(goldens, time.monotonic() + 60)


class GoldenTests(unittest.TestCase):
    def test_clean_run_has_zero_fail_ratio(self):
        metrics, _ = run.timed_run(runner(golden()), [CHEAP_JOB], seconds=0)
        self.assertEqual(metrics["fail_ratio"], 0)

    def test_corrupted_digest_raises_fail_ratio(self):
        goldens = golden()
        key = run.job_key(CHEAP_JOB)
        bad = goldens[key]["sha256"]
        goldens[key] = dict(goldens[key], sha256=bad[:-1] + ("0" if bad[-1] != "0" else "1"))
        r = runner(goldens)
        metrics, _ = run.timed_run(r, [CHEAP_JOB], seconds=0)
        self.assertGreater(metrics["fail_ratio"], 0)
        self.assertEqual(r.failed, [key])

    def test_every_timed_job_has_a_zero_exit_golden(self):
        design = run.load_json(run.BENCH / "design.json")
        goldens = golden()
        for workload in design["workloads"]:
            for seed in range(20):
                for job in run.workload_jobs(design, workload, seed):
                    self.assertEqual(goldens[run.job_key(job)]["exit"], 0, job)

    def test_seed_fixes_the_jobs(self):
        design = run.load_json(run.BENCH / "design.json")
        picks = {tuple(map(tuple, run.workload_jobs(design, "tmod", s))) for s in range(40)}
        self.assertGreater(len(picks), 1)
        self.assertEqual(run.workload_jobs(design, "tmod", 7), run.workload_jobs(design, "tmod", 7))


class MetricTests(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_json(run.ROOT / "BENCHMARK.json")
        self.design = run.load_json(run.BENCH / "design.json")

    def test_timed_run_reports_every_end_to_end_metric(self):
        metrics, _ = run.timed_run(runner(golden()), [CHEAP_JOB], seconds=0)
        for metric in self.spec["end_to_end"]:
            self.assertGreater(metrics[metric["name"]], 0, metric["name"])

    def test_traced_job_matches_golden_and_reports_every_layer_metric(self):
        r = runner(golden())
        trace = r.run_traced(CHEAP_JOB)
        self.assertEqual(r.failed, [])
        self.assertTrue(trace["spans"])
        agg = run.merge_pass([trace])
        metrics = run.layer_metrics(agg, agg["wall"], self.design, "exact")
        for metric in self.spec["per_layer"]:
            self.assertIn(metric["name"], metrics)
        self.assertGreater(metrics["checks.thm33_s"], 0)
        self.assertGreater(metrics["algebra.val2_calls"], 2000)


class ContractTests(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_shape(self):
        spec = run.load_json(run.ROOT / "BENCHMARK.json")
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        design = run.load_json(run.BENCH / "design.json")
        self.assertEqual([w["name"] for w in spec["workloads"]], list(design["workloads"]))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], design["workloads"][w["name"]]["why"])
            self.assertLessEqual(len(w["why"]), 200)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        mapped = set(design["layer_to_end_to_end"])
        listed = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(mapped, listed)


if __name__ == "__main__":
    unittest.main()
