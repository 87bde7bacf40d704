"""Self-test of the benchmark, on reduced sizes of the workloads.

    python3 perfbench/selftest.py

The file name keeps it out of the package's pytest collection.
"""

import dataclasses
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from worker import OUT, ROOT, run_one, traced_run  # first: puts src/ on sys.path
from brokenchains import bench
from spans import COUNT_METRICS
from workloads import WORKLOADS, job_seed, make_job

SEED = 11


class FailuresAreCounted(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)

    def _with_rows_to_csv(self, corrupt, golden=None):
        original = bench.rows_to_csv
        bench.rows_to_csv = lambda rows: corrupt(original(rows))
        try:
            return run_one(make_job("fig3-inject", SEED, 0, "small"), golden)
        finally:
            bench.rows_to_csv = original

    def test_clean_job_passes(self):
        self.assertIsNone(run_one(make_job("fig3-inject", SEED, 0, "small")).error)

    def test_corrupted_ratio_fails_the_invariants(self):
        def corrupt(text):
            head, *rows = text.splitlines(keepends=True)
            cells = rows[-1].split(",")  # the tailored row
            cells[-1] = "0.5\n"
            return "".join([head, *rows[:-1], ",".join(cells)])

        outcome = self._with_rows_to_csv(corrupt)
        self.assertIn("ratio_vs_minenergy", outcome.error)

    def test_corrupted_bytes_fail_the_pinned_digest(self):
        job = make_job("fig3-inject", SEED, 0, "small")
        golden = {"fig3-inject": [run_one(job).digest]}
        self.assertIsNone(run_one(job, golden).error)
        outcome = self._with_rows_to_csv(lambda text: text.replace("\n", "\r\n"), golden)
        self.assertIn("digest", outcome.error)

    def test_nonzero_cli_exit_fails(self):
        job = dataclasses.replace(make_job("cli-stepwise", SEED, 0, "small"), reads=0)
        outcome = run_one(job)
        self.assertIn("brokenchains sample exited", outcome.error)


class TracedRuns(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)

    def test_counts_repeat_and_traced_digests_match(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                outcomes, mismatches, first = traced_run(workload, SEED, "small", 4)
                self.assertEqual(mismatches, [])
                self.assertEqual([o.error for o in outcomes if o.error], [])
                _, _, second = traced_run(workload, SEED, "small", 4)
                for name in COUNT_METRICS:
                    self.assertEqual(first[name], second[name], name)
                self.assertGreater(first["sampler.spin_updates"], 0)
                layers = sum(v for k, v in first.items()
                             if k.endswith("_s") and not k.startswith("trace."))
                self.assertAlmostEqual(layers, first["trace.job_s"], delta=1e-3)

    def test_io_layers_only_on_the_cli_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, metrics = traced_run(workload, SEED, "small", 2)
                on_cli = workload == "cli-stepwise"
                self.assertEqual(metrics["sampler.read_s"] > 0, on_cli)
                self.assertEqual(metrics["sampler.bytes_written"] > 0, on_cli)


class Workloads(unittest.TestCase):
    def test_job_seeds_do_not_depend_on_the_package(self):
        self.assertEqual(job_seed("fig3-anneal", 0, 0), 7492633793182193766)
        self.assertEqual(make_job("k65-fig4", 0, 5).problem, "max_cut")
        problems = [make_job("fig3-anneal", 0, i).problem for i in range(4)]
        self.assertEqual(len(set(problems)), 4)

    def test_fails_without_the_package(self):
        OUT.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig3-inject",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
