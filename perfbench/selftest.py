#!/usr/bin/env python3
"""Self-test of the benchmark at shallow stages (a few seconds each).

    python3 perfbench/selftest.py

Not part of the package's test suite: it checks the benchmark, not
cantordiff.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import unittest

import run
from workloads import WORKLOADS


def _run_shallow(*args: str) -> tuple[dict, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", "all", "--seed", "7", "--seconds", "1", *args],
                        shallow=True)
    text = buffer.getvalue()
    assert code == 0, text
    return json.loads(text.strip().splitlines()[-1]), text


class SelfTest(unittest.TestCase):
    def test_tiny_run_prints_every_metric_with_its_unit(self):
        began = time.monotonic()
        result, text = _run_shallow("--trace", "0")
        self.assertLess(time.monotonic() - began, 60)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        self.assertEqual(text.count("fail_ratio   1   0.0000"), len(WORKLOADS))
        expected = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in run.END_TO_END}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_counters_repeat_exactly(self):
        first, text = _run_shallow("--trace", "1")
        second, _ = _run_shallow("--trace", "1")
        self.assertTrue(first["correct"], text)
        expected = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in run.PER_LAYER}
        self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, expected)
        counters = {f"{w}.{name}" for w in WORKLOADS for name, _ in run.COUNTERS}
        for key in counters:
            self.assertEqual(first["metrics"][key], second["metrics"][key], key)
        for w in WORKLOADS:
            self.assertGreater(first["metrics"][f"{w}.cli.main.self_s"]["value"], 0)
            self.assertGreater(first["metrics"][f"{w}.constructions.components"]["value"], 0)

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)

    def test_refuses_to_run_without_the_source_tree(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "brackets",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
