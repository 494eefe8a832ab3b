"""Self-tests of the benchmark: python3 bench/selftest.py

They check the benchmark rather than flagcw: that the seed fixes the job
list, that answers do not depend on the interpreter's hash seed, that a
traced pass gives the same answers as a plain one and its spans fit in the
job's time, that a wrong expected value or answer hash is counted as a
failure, and that the runner refuses to run without the sources.  The file
name keeps pytest from collecting them with the package tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import jobs as J
import run
import tracer

BENCH_DIR = Path(__file__).resolve().parent
FAST_S = 1.0
# Jobs of about a second or less that together reach every traced layer.
TRACE_SAMPLE = ("count cubic-lines", "torsion 1,1,2,2",
                "sq2-torsion Fl(6) twist 0", "verify annihilator", "verify piqp")


def all_jobs() -> list:
    return [j for w in J.WORKLOADS for j in J.workload_jobs(w, J.DEFAULT_SEED)]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_tmp")
        cls.workdir = Path(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def assert_passed(self, p: run.Pass):
        for o in p.outcomes:
            self.assertEqual(o.problems, [], o.job.name)

    def main(self, *argv) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.assertEqual(run.main(list(argv)), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_seed_fixes_the_job_list(self):
        def listing(seed):
            return [(j.name, j.argv) for j in J.workload_jobs("sq2-torsion", seed)]

        self.assertEqual(listing(0), listing(0))
        self.assertNotEqual(listing(0), listing(1))
        classes = J.fl6_block2_twists()
        self.assertEqual(len(set(classes)), 16)
        for seed in range(50):
            a, b = J.drawn_twists(seed)
            self.assertNotEqual(a, b)
            self.assertIn(a, classes)
            self.assertIn(b, classes)

    def test_declared_metrics_match_the_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(J.WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_s", "setup_s", "peak_rss_mb"})
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracer.metric_names()
                         + ["trace.other_self_s", "trace.overhead_s"])

    def test_answers_do_not_depend_on_the_hash_seed(self):
        first = run.Bench(self.workdir, hash_seed=0).run_pass(all_jobs())
        self.assert_passed(first)
        fast = [o for o in first.outcomes if o.run.seconds < FAST_S]
        self.assertTrue(fast)
        again = run.Bench(self.workdir, hash_seed=12345).run_pass(
            [o.job for o in fast])
        self.assert_passed(again)
        self.assertEqual([o.sha256 for o in again.outcomes],
                         [o.sha256 for o in fast])

    def test_traced_pass_agrees_with_plain_pass(self):
        sample = [j for j in all_jobs() if j.name in TRACE_SAMPLE]
        self.assertEqual(len(sample), len(TRACE_SAMPLE))
        bench = run.Bench(self.workdir)
        plain = bench.run_pass(sample)
        traced = bench.run_pass(sample, traced=True)
        run.mark_unstable_answers([plain, traced])
        self.assert_passed(plain)
        self.assert_passed(traced)
        for o in traced.outcomes:
            self_s = sum(v for k, v in o.totals.items() if k.endswith(".self_s"))
            self.assertLessEqual(self_s, o.run.seconds, o.job.name)
        values = run.per_layer(plain, traced)
        for module in ("poly", "flagchow", "steenrod", "gf2", "intlinalg",
                       "symfunc", "wdring"):
            self.assertTrue(any(v for k, v in values.items()
                                if k.startswith(module + ".")), module)

    def test_wrong_expectations_are_counted_as_failed(self):
        cubic = J.workload_jobs("enumerative", 0)[0]
        wrong_value = replace(cubic, expect={**cubic.expect, "complex": 28})
        with mock.patch.dict(J.WORKLOADS,
                             {"enumerative": lambda seed: [wrong_value, cubic]}):
            out = self.main("--workload", "enumerative", "--seconds", "0")
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (False, 2, 1))
        with mock.patch.dict(J.WORKLOADS, {"enumerative": lambda seed: [cubic]}), \
                mock.patch.dict(J.RECORDED_SHA256, {cubic.name: "0" * 64}):
            out = self.main("--workload", "enumerative", "--seconds", "0")
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (False, 1, 1))

    def test_refuses_to_run_without_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(Path(BENCH_DIR.name) / "run.py"),
             "--workload", "enumerative", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
