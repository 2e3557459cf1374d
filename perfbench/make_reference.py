#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the exact outputs every input set of
every workload must reproduce. Run from the root of a checkout:

    python3 perfbench/make_reference.py [--input-sets 32]

For each workload and input set it runs the benchmark binary briefly (each
phase still runs at least once per round, two rounds) and records the
binary's reference_values: the replica probe logits digest, the Monte-Carlo
per-die accuracies and the fleet summary. The kernel dispatch level of the
host is recorded too; run.py compares only on a host at the same level,
because float results differ between levels by rounding. Regenerate only when
a change to the program is meant to change these outputs.
"""

import argparse
import json
import subprocess
import sys

import run


def reference_values(workload, input_set):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(input_set),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        run.fail(f"{workload} input set {input_set}: exit {proc.returncode}\n{proc.stderr}", 3)
    detail = json.loads(lines[-2])["detail"]
    if not json.loads(lines[-1])["correct"]:
        run.fail(f"{workload} input set {input_set}: {detail['problems']}", 3)
    return detail["reference_values"], detail["host"]["kernel_level"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input-sets", type=int, default=32)
    args = parser.parse_args()
    run.build()
    with open(run.ROOT / "BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    table, level = {}, None
    for workload in workloads:
        table[workload] = {}
        for input_set in range(args.input_sets):
            values, level = reference_values(workload, input_set)
            table[workload][str(input_set)] = values
            print(f"{workload} {input_set}", file=sys.stderr, flush=True)
    reference = {"input_sets": args.input_sets, "kernel_level": level, "workloads": table}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
