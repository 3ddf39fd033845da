#!/usr/bin/env python3
"""Self-tests of the benchmark itself (the program's tests live in ``tests/``).

Run from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

* A tiny run of every workload, untraced and traced, emits every metric that
  ``BENCHMARK.json`` names, with its unit, and fails no op.
* An injected wrong expectation (``--inject-wrong``, on the benchmark side)
  makes ``failed`` > 0 on every workload, so the gates are not vacuous.
* Runs with the same seed print the same answers digest.
* Without the program's source next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *flags: str, seed: int = 3, cwd: Path = ROOT):
    """Run the benchmark tiny; ``(exit code, stdout lines)``."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--tiny", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def digest(lines) -> str:
    return next(line.split()[-1] for line in lines if "answers digest" in line)


class SelfTest(unittest.TestCase):
    def check_metrics(self, lines, declared) -> dict:
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result

    def test_smoke_digest_and_injection(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, plain = bench(workload, "--trace", "0")
                self.assertEqual(code, 0)
                result = self.check_metrics(plain, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

                code, traced = bench(workload, "--trace", "1")
                self.assertEqual(code, 0)
                result = self.check_metrics(traced, SPEC["per_layer"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0.5)
                self.assertEqual(digest(plain), digest(traced))

                code, wrong = bench(workload, "--trace", "0", "--inject-wrong")
                self.assertEqual(code, 0)
                result = json.loads(wrong[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            code, lines = bench(WORKLOADS[0], "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
