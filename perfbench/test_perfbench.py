#!/usr/bin/env python3
"""Tests of the perfbench package.

Every workload at smoke size (traced and untraced), the known-answer
check against a corrupted answer, the compare verdicts, and the failure
in a directory without the PMTest sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as perfbench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=900)


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)


class SmokeTest(unittest.TestCase):
    """Each workload runs, checks clean, and reports its declared metrics."""

    def check(self, workload, trace):
        proc = smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        for key in ("nproc", "compiler", "build_type", "seed", "run_seconds"):
            self.assertIn(key, info["perfbench"])

    def test_offline_small(self):
        self.check("offline_small", 0)

    def test_offline_small_traced(self):
        self.check("offline_small", 1)

    def test_offline_large(self):
        self.check("offline_large", 0)

    def test_offline_large_traced(self):
        self.check("offline_large", 1)

    def test_online_kv(self):
        self.check("online_kv", 0)

    def test_online_kv_traced(self):
        self.check("online_kv", 1)


class KnownAnswerTest(unittest.TestCase):
    """A corrupted expected answer must be reported, not absorbed."""

    def check_reported(self, workload, trace):
        proc = smoke(workload, trace, "--corrupt-expected")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        lines = proc.stdout.splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        metrics = result["metrics"] if trace else info["perfbench"]["extra"]
        self.assertGreater(metrics["error_rate"]["value"], 0)

    def test_offline_answer_corrupted(self):
        self.check_reported("offline_small", 0)

    def test_offline_answer_corrupted_traced(self):
        self.check_reported("offline_large", 1)

    def test_online_answer_corrupted(self):
        self.check_reported("online_kv", 0)


class CompareTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def verdict(self, new, better="lower", bound=0.1, base=None):
        return perfbench.compare_metric(base or self.base, new, better,
                                        bound)["verdict"]

    def test_same_numbers_are_unchanged(self):
        self.assertEqual(self.verdict(list(self.base)), "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        self.assertEqual(self.verdict([v * 1.3 for v in self.base]), "worse")

    def test_consistent_gain_is_better(self):
        self.assertEqual(self.verdict([v * 0.8 for v in self.base]), "better")
        self.assertEqual(
            self.verdict([v * 1.2 for v in self.base], better="higher"),
            "better")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 105.0]
        self.assertEqual(self.verdict(noisy), "unresolved")

    def test_compare_reads_result_sets(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for side, scale in (("base", 1.0), ("new", 1.5)):
                path = Path(tmp) / f"{side}.jsonl"
                with open(path, "w") as f:
                    for seed, v in enumerate(self.base):
                        metrics = {m["name"]: {"value": v * scale,
                                               "unit": m["unit"]}
                                   for m in SPEC["end_to_end"]}
                        f.write(json.dumps({
                            "workload": "offline_small", "seed": seed,
                            "trace": 0, "result": {"metrics": metrics}})
                            + "\n")
                paths.append(str(path))
            proc = bench("--compare", *paths)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            report = json.loads(proc.stdout.splitlines()[-1])["compare"]
            verdicts = report["offline_small"]
            self.assertEqual(verdicts["check_s_p50"]["verdict"], "worse")
            self.assertEqual(verdicts["check_mops"]["verdict"], "better")


class NoSourcesTest(unittest.TestCase):
    """Without the PMTest sources the benchmark fails and prints no result."""

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "out"))
            proc = bench("--workload", "offline_small", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
