#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the benchmark binary from source
(perfbench/CMakeLists.txt compiles ../src) into .bench_build/perfbench, runs
one workload, checks that every metric named in BENCHMARK.json is present with
its unit, and prints the binary's result object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The seed picks one of the input sets in perfbench/reference.json (seed modulo
their count); the run's exact outputs (replica probe logits, Monte-Carlo
per-die accuracies, the fleet summary) must equal that set's committed
reference, or the result says "correct": false. perfbench/make_reference.py
regenerates the file.

With --trace 1 the metrics are the per-layer ones, and the spans are written
to .bench_build/traces/<workload>-seed<n>.jsonl. Build output goes to stderr.
Without the ftpim sources next to perfbench/ the run fails with a non-zero
exit code and prints no result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ftpim_perfbench"
REFERENCE = PERFBENCH / "reference.json"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, what):
    """Runs a build step, sending its output to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})", 2)


def build(target="ftpim_perfbench"):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"ftpim sources not found at {ROOT / 'src'}; run from a full checkout", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(PERFBENCH), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs], "build")


def source_id():
    """The commit when the checkout is a git repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """name -> unit from BENCHMARK.json, or None when it is absent."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                            f"extra {extra}, unit mismatch {units}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def compare_reference(detail, reference, workload, input_set):
    """Returns (problems, note) for the run's exact outputs against the
    committed reference of its input set."""
    recorded = reference["kernel_level"]
    level = detail["host"]["kernel_level"]
    if level != recorded:
        # Float results differ between kernel levels by rounding.
        return [], f"not compared: recorded at kernel level {recorded}, this host runs {level}"
    want = reference["workloads"].get(workload, {}).get(str(input_set))
    got = detail.get("reference_values", {})
    if want is None:
        return [f"reference: no entry for {workload} input set {input_set}"], "missing"
    differing = sorted(k for k in set(want) | set(got) if got.get(k) != want.get(k))
    if differing:
        return [f"reference: {', '.join(differing)} differ from the committed values"], "differs"
    return [], "matched"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    reference = json.loads(REFERENCE.read_text())
    input_set = args.seed % reference["input_sets"]
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(input_set),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with {proc.returncode}", 3)
    result = json.loads(lines[-1])
    problems = validate(result, bool(args.trace))
    if problems:
        fail("; ".join(problems), 3)
    detail = json.loads(lines[-2])
    mismatches, note = compare_reference(detail["detail"], reference, args.workload, input_set)
    detail["detail"].update(requested_seed=args.seed, input_set=input_set, reference=note)
    if mismatches:
        result["correct"] = False
        detail["detail"]["problems"] += mismatches
    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
