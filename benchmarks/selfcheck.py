"""Self-checks of the benchmark at a tiny size.

    python3 benchmarks/selfcheck.py

- every metric of BENCHMARK.json prints with its name and unit, in both
  the timed and the traced run;
- the same seed and seconds run the same jobs: attempted and failed repeat
  exactly;
- a deliberately corrupted result is counted as a failed job, not raised;
- a job that raises is counted as failed and the run goes on;
- without the library's source the benchmark exits nonzero and prints no
  result.

Takes about a minute; writes only under .bench_out/.
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
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class MetricsPrint(unittest.TestCase):
    def check_run(self, workload, trace, listed):
        proc = bench("--workload", workload, "--seed", 3, "--seconds", 0.5, "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertIn(name, proc.stderr)  # the human-readable table
        return result

    def test_every_workload_prints_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 0, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_per_layer_metrics(self):
        self.check_run("exact_recover", 1, SPEC["per_layer"])

    def test_same_seed_runs_the_same_jobs(self):
        first = self.check_run("float_pipeline", 0, SPEC["end_to_end"])
        again = self.check_run("float_pipeline", 0, SPEC["end_to_end"])
        self.assertEqual((first["attempted"], first["failed"]), (again["attempted"], again["failed"]))


class FailuresAreCounted(unittest.TestCase):
    def setUp(self):
        import laplaceratio as L
        from laplaceratio import fileformats as ff

        self.L, self.ff = L, ff

    def test_corrupted_result_is_a_failed_job(self):
        from exact import recover_job
        from jobs import CheckContext, check_results, run_phase
        from refclock import RefClock
        from spans import NullTracer

        L = self.L
        job = recover_job(L, self.ff, L.Poly([1, 2, 3]), 2, 1, 2)
        honest = job.run

        def corrupted(tr):
            H, H2, result = honest(tr)
            bad = type(result)(result.poly + L.Poly([1]), result.ambiguous_sign,
                               result.recovered_degree, result.k)
            return H, H2, bad

        job.run = corrupted
        results = run_phase(iter([[job]]), 1, NullTracer(), RefClock())
        check_results(results, CheckContext(None))
        self.assertFalse(results[0].ok)
        self.assertTrue(any(v.defect is None and not v.ok for v in results[0].verdicts))

    def test_raising_job_does_not_abort_the_run(self):
        from exact import recover_job
        from jobs import CheckContext, Job, JobError, check_results, run_phase
        from refclock import RefClock
        from spans import NullTracer

        def boom(tr):
            raise RuntimeError("deliberate")

        bad = Job("recover", "raises", boom, lambda out, ctx: [])
        good = recover_job(self.L, self.ff, self.L.Poly([1, 1]), 2, 1, 1)
        results = run_phase(iter([[bad, good]]), 1, NullTracer(), RefClock())
        check_results(results, CheckContext(None))
        self.assertEqual(len(results), 2)
        self.assertIsInstance(results[0].output, JobError)
        self.assertFalse(results[0].ok)
        self.assertTrue(results[1].ok)


class WithoutSource(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = ROOT / ".bench_out" / "selfcheck-bare"
        shutil.rmtree(bare, ignore_errors=True)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("--workload", "exact_recover", "--seed", 1, "--seconds", 1, "--trace", 0,
                         cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
