#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

They build and run the C++ unit tests (percentiles, the Poisson schedule, the
metric table), check that a short run of every workload — the real workload,
two rounds, every phase and check at least once — passes, matches its
committed reference and prints every metric BENCHMARK.json names with its
unit, check the reference comparison itself, and check that the benchmark
refuses to run without the ftpim sources.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

SEED = 35  # input set 3 of the committed reference


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900,
                          check=False)


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests_pass(self):
        # run.py configures the build tree; one short run makes sure it exists.
        self.assertEqual(run_bench("fleet_lifecycle", 0).returncode, 0)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_unit_tests",
                        "-j", "4"], check=True, capture_output=True)
        proc = subprocess.run([str(BUILD / "perfbench_unit_tests")], capture_output=True,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], detail["problems"])
        self.assertEqual(detail["reference"], "matched")
        input_sets = json.loads(run.REFERENCE.read_text())["input_sets"]
        self.assertEqual(detail["input_set"], SEED % input_sets)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        for key in ("cores", "kernel_level", "vnni", "num_threads", "compiler", "build_type",
                    "source"):
            self.assertIn(key, detail["host"])
        return result

    def test_every_workload_untraced(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_every_workload_traced(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 1)
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)
                trace = ROOT / ".bench_build" / "traces" / f"{w['name']}-seed{SEED}.jsonl"
                first = json.loads(trace.read_text().splitlines()[0])
                self.assertEqual(set(first), {"name", "start_ns", "end_ns", "parent", "request"})


class ReferenceComparison(unittest.TestCase):
    REFERENCE = {"input_sets": 2, "kernel_level": "avx2",
                 "workloads": {"w": {"1": {"mc_run_accs": [0.5, 0.25], "probe_logit_sum": 1.5}}}}

    def detail(self, level="avx2", accs=(0.5, 0.25), logit_sum=1.5):
        return {"host": {"kernel_level": level},
                "reference_values": {"mc_run_accs": list(accs), "probe_logit_sum": logit_sum}}

    def test_equal_values_match(self):
        self.assertEqual(run.compare_reference(self.detail(), self.REFERENCE, "w", 1),
                         ([], "matched"))

    def test_any_changed_value_is_a_failure(self):
        problems, note = run.compare_reference(self.detail(accs=(0.5, 0.26)), self.REFERENCE,
                                               "w", 1)
        self.assertEqual(note, "differs")
        self.assertIn("mc_run_accs", problems[0])
        problems, _ = run.compare_reference(self.detail(logit_sum=1.5000001), self.REFERENCE,
                                            "w", 1)
        self.assertIn("probe_logit_sum", problems[0])

    def test_missing_entry_is_a_failure(self):
        problems, _ = run.compare_reference(self.detail(), self.REFERENCE, "w", 0)
        self.assertTrue(problems)

    def test_other_kernel_level_is_not_compared(self):
        problems, note = run.compare_reference(self.detail(level="scalar", accs=(0.0, 0.0)),
                                               self.REFERENCE, "w", 1)
        self.assertEqual(problems, [])
        self.assertTrue(note.startswith("not compared"))


class Refusals(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        try:
            proc = run_bench("serve_float", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_unknown_workload_is_refused(self):
        proc = run_bench("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
