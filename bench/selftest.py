"""Tests of the benchmark itself, on short smoke runs.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit
for every workload, that no op fails at the seed commit, that a
deliberately wrong answer (``--mutate jj-term`` energies fed to the oracle
and closure checks) is counted as a failed op, and that the benchmark
refuses to run without the package source.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seed", "3",
         "--seconds", "1", "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def assert_declared(self, res, declared):
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_metric_emitted_with_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = result("--workload", w["name"], "--trace", str(trace))
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertTrue(res["correct"])
                    self.assert_declared(res, SPEC[key])

    def test_wrong_energies_count_as_failures(self):
        res = result("--workload", "verify-sweep", "--trace", "0",
                     "--mutate", "jj-term")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(res["metrics"]["pass_ratio"]["value"], 0.0)

    def test_refuses_without_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(BENCH, root / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "cli-cold", "--trace", "0", root=root)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
