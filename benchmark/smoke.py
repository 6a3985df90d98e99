#!/usr/bin/env python3
"""bench_smoke: run every workload of BENCHMARK.json briefly, untraced and
traced, and check chameleon_benchmark's output contract.

    python3 benchmark/smoke.py --binary PATH --spec BENCHMARK.json --work-dir DIR

Each run lasts about 5% of the benchmark's run_seconds. A run passes when it
exits 0, prints every metric BENCHMARK.json names for its mode as a
`name value unit` line with the declared unit, and ends with one JSON line
whose metrics are exactly those names.
"""
import argparse
import json
import os
import subprocess
import sys


def check_run(binary, spec, workload, trace, work_dir):
    seconds = max(0.5, 0.05 * spec["run_seconds"])
    cmd = [binary, "workload=" + workload, "seed=1", "seconds=%r" % seconds,
           "trace=%d" % trace, "work_dir=" + os.path.join(work_dir, workload)]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    problems = []
    if result.returncode != 0:
        problems.append("exit code %d:\n%s" % (result.returncode, result.stderr))
    lines = result.stdout.strip().splitlines()
    expected = spec["per_layer" if trace else "end_to_end"]
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            printed[fields[0]] = fields[2]
    for metric in expected:
        unit = printed.get(metric["name"])
        if unit is None:
            problems.append("%s not printed" % metric["name"])
        elif unit != metric["unit"]:
            problems.append("%s printed in %s, not %s"
                            % (metric["name"], unit, metric["unit"]))
    try:
        last = json.loads(lines[-1]) if lines else {}
    except ValueError:
        last = {}
        problems.append("last line is not JSON")
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("last line keys are %s" % sorted(last))
    elif set(last["metrics"]) != {m["name"] for m in expected}:
        problems.append("last line metrics differ from BENCHMARK.json")
    elif last["correct"] is not True or last["attempted"] < 1:
        problems.append("run not correct: %s" % lines[-1][:200])
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(args.binary, spec, workload["name"], trace,
                                 args.work_dir)
            status = "ok" if not problems else "FAILED"
            print("bench_smoke: %s trace=%d %s" % (workload["name"], trace, status))
            for problem in problems:
                print("  " + problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
