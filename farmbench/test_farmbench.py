#!/usr/bin/env python3
"""Tests of the whole-farm benchmark at its tiny size.

Run from the repository root:

    python3 -m unittest farmbench/test_farmbench.py

The first test builds the benchmark (see run.py) if it is not built yet.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["boot", "steady", "churn"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, *extra, seed=7, size="tiny"):
    """Runs one benchmark (tiny by default); returns (stdout lines, result
    dict)."""
    r = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", size, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError("run.py failed (%d):\n%s\n%s" %
                             (r.returncode, r.stdout, r.stderr[-2000:]))
    lines = r.stdout.splitlines()
    return lines, json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def check_metrics(self, lines, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        printed = {}
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit = line.split()
                printed[name] = (float(value), unit)
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                lines, result = bench(workload, 0)
                self.check_metrics(lines, result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], "\n".join(lines[:-1]))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=workload, trace=1):
                lines, result = bench(workload, 1)
                self.check_metrics(lines, result, SPEC["per_layer"])
                # The determinism guard found tracing changed nothing.
                self.assertTrue(result["correct"], "\n".join(lines[:-1]))
                self.assertFalse([l for l in lines if "guard:" in l])

    def test_slice_tail_reports_percentile_and_sample_count(self):
        lines, result = bench("churn", 0)
        tail = [l for l in lines if l.startswith("slice_ms_tail is p")]
        self.assertEqual(len(tail), 1)
        m = re.match(r"slice_ms_tail is p([0-9.]+) of (\d+) slices", tail[0])
        self.assertIsNotNone(m, tail[0])
        pct, samples = float(m.group(1)), int(m.group(2))
        self.assertGreater(pct, 0)
        # At least ten samples lie beyond the reported percentile.
        self.assertGreaterEqual(samples * (100 - pct) / 100, 10)
        lines, result = bench("churn", 1)
        layers = result["metrics"]
        self.assertGreater(layers["slice.tail_pct"]["value"], 0)
        self.assertGreater(layers["slice.samples"]["value"], 0)

    def test_unrecovered_fault_raises_fail_frac(self):
        lines, result = bench("churn", 0, "--unrecovered-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac = [l for l in lines if l.startswith("fail_frac ")]
        self.assertEqual(len(frac), 1)
        self.assertGreater(float(frac[0].split()[1]), 0)

    # Open defect (README.md, "Findings" 1): with domain moves in its
    # schedule, this seed's churn moves an adapter into a ~120-member VLAN
    # that never absorbs it. That is why churn leaves domain moves out. The
    # test starts passing (an unexpected success) once the defect is fixed.
    @unittest.expectedFailure
    def test_domain_moves_reconverge(self):
        lines, result = bench("churn", 0, "--domain-moves", seed=110,
                              size="full")
        self.assertTrue(result["correct"], "\n".join(lines[-20:]))

    def test_without_sources_it_fails_without_a_result(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        base = build if os.path.isabs(build) else os.path.join(ROOT, build)
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "farmbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run(
                [sys.executable, "farmbench/run.py", "--workload", "boot",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
