"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Checks that each workload reports every metric BENCHMARK.json names, with
its unit, in both modes; that a check broken on purpose lowers pass_frac;
and that bench/run.py refuses to run without sources or with a worker pool.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402

import sketchsolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> measure.Workload:
    return dataclasses.replace(measure.WORKLOADS[name], m=200, n=10, trials=2)


def units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


class SmokeTest(unittest.TestCase):
    def setUp(self):
        measure.BUILD_DIR.mkdir(exist_ok=True)
        self.build_dir = Path(tempfile.mkdtemp(dir=measure.BUILD_DIR))
        self.addCleanup(shutil.rmtree, self.build_dir)

    def measure(self, name: str, trace: bool) -> dict:
        return measure.measure(tiny(name), seed=3, seconds=0.01, trace=trace, build_dir=self.build_dir)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(measure.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))

    def test_every_metric_is_reported_with_its_unit(self):
        end_to_end = units(SPEC["end_to_end"])
        del end_to_end["peak_rss_mb"]  # added by run.py, which measures the process
        per_layer = units(SPEC["per_layer"])
        for name in measure.WORKLOADS:
            for trace, expected in ((False, end_to_end), (True, per_layer)):
                with self.subTest(workload=name, trace=trace):
                    result = self.measure(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    if not trace:
                        self.assertEqual(result["metrics"]["pass_frac"]["value"], 1.0)

    def test_broken_check_lowers_pass_frac(self):
        real_run = sketchsolve.run

        def off_target(system, config, x0=None):
            x, trace = real_run(system, config, x0)
            if config.method == "motzkin":
                x = sketchsolve.RealVector(x.a + 1.0)
            return x, trace

        for name in ("coherent-race", "gaussian-compare"):
            with self.subTest(workload=name), mock.patch.object(sketchsolve, "run", off_target):
                result = self.measure(name, trace=False)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["failed"], result["attempted"])
                self.assertLess(result["metrics"]["pass_frac"]["value"], 1.0)

    def test_run_prints_the_result_last(self):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "gaussian-compare",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units(SPEC["end_to_end"]))

    def test_run_refuses_a_worker_pool(self):
        env = dict(os.environ, SKETCHSOLVE_WORKERS="2")
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "gaussian-compare"],
                             capture_output=True, text=True, timeout=60, env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_run_fails_without_sources(self):
        bare = self.build_dir / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "gaussian-compare"],
                             capture_output=True, text=True, timeout=60, cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
