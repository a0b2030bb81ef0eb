#!/usr/bin/env python3
"""Tests of the repository benchmark, at a tiny size of each workload.

    python3 perfbench/tests/test_perfbench.py

Builds the harness like perfbench/run.py does (into .bench_build/) and
checks that the layer decorators are byte-neutral, that every metric the
harness prints is declared in BENCHMARK.json, that an uncreatable store
path counts as failed saves, and that the benchmark refuses to run outside
a checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run as bench  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        bench.build()
        cls.out = os.path.join(".bench_out", f"tests-{os.getpid()}")
        os.makedirs(cls.out, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def harness(self, workload, *extra):
        """Runs one tiny workload; returns (report, stdout lines)."""
        cmd = [bench.BINARY, "--workload", workload, "--seed", "1",
               "--seconds", "0.2", "--size", "tiny",
               "--work-dir", os.path.join(self.out, workload),
               "--trace-out", os.path.join(self.out, workload + ".json"),
               *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]), lines

    def test_decorators_are_byte_neutral(self):
        # Each study is serialized three ways and must match byte for byte:
        # the untraced composition, the decorated (traced) composition, and
        # core::run_aggregate + core::run_strategy (--check-library).
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                report, _ = self.harness(workload, "--check-library")
                self.assertTrue(report["correct"], report["problems"])
                self.assertEqual(report["failed"], 0)

    def test_printed_metrics_are_declared(self):
        e2e, layers = bench.declared_metrics()
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                report, lines = self.harness(workload)
                printed = [ln.split()[1] for ln in lines
                           if ln.startswith("metric ")]
                self.assertTrue(printed)
                self.assertEqual(set(printed) - set(e2e + layers), set())
                self.assertEqual(sorted(report["end_to_end"]), sorted(e2e))
                self.assertEqual(sorted(report["per_layer"]), sorted(layers))

    def test_uncreatable_store_path_is_a_failed_save(self):
        blocker = os.path.join(self.out, "regular-file")
        with open(blocker, "w") as f:
            f.write("not a directory\n")
        report, _ = self.harness("store-warm", "--store-root",
                                 os.path.join(blocker, "stores"))
        layers = report["per_layer"]
        saves_failed = layers["store.save_failures"]["value"]
        self.assertGreater(saves_failed, 0)
        self.assertGreaterEqual(report["failed"], saves_failed)
        self.assertAlmostEqual(layers["failed_frac"]["value"],
                               report["failed"] / report["attempted"])
        self.assertGreater(layers["failed_frac"]["value"], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory(dir=self.out) as bare:
            shutil.copy("BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lcda-paper", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
