"""Self-tests of the benchmark itself (not of spinsim).

    python3 perfbench/selftest.py

Takes about a minute: it makes smoke-size runs of every workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import CliCorpus, RandomTrace  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke_sizes(test: unittest.TestCase) -> None:
    """Shrink the job lists of the two workloads whose size is a count."""
    for cls, attr, value in ((RandomTrace, "RUNS", 5), (CliCorpus, "ROUNDS", 1)):
        old = getattr(cls, attr)
        setattr(cls, attr, value)
        test.addCleanup(setattr, cls, attr, old)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_per_layer_metrics_match_the_declaration(self):
        produced = set(run.layer_metrics({}, {}, 1)) | {"bench.trace_overhead_s"}
        self.assertEqual(produced, {m["name"] for m in BENCHMARK["per_layer"]})


class Smoke(unittest.TestCase):
    def setUp(self):
        smoke_sizes(self)

    def check_result(self, result: dict, declared: list[dict]) -> None:
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for name in result["metrics"]:
            self.assertRegex(name, NAME)

    def test_each_workload_untraced_and_traced(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = run.measure(workload, 1, 0, trace, run.load_expected())
                    self.check_result(result, declared)
                    if not trace:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_command_line_prints_the_result_last(self):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "random-trace",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.check_result(result, BENCHMARK["end_to_end"])


class Checks(unittest.TestCase):
    def test_corrupted_expected_value_fails_jobs(self):
        smoke_sizes(self)
        expected = run.load_expected()
        expected["random-trace"]["final_memory"]["accountBalance"] = 141
        result = run.measure("random-trace", 1, 0, False, expected)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        self.addCleanup(shutil.rmtree, bare, True)
        done = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "cli-corpus",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
