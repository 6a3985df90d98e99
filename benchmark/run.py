#!/usr/bin/env python3
"""Build and run the Chameleon end-to-end benchmark.

    python3 benchmark/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Builds this directory's CMake package (the repository's libraries,
chameleon_server, chameleon_router and chameleon_benchmark) into
.bench_build/ at the checkout root, then runs chameleon_benchmark. Build
output goes to stderr, so the last line on stdout is its JSON result. The full
report, with host metadata and every check, is written to
.bench_build/results/. The exit code is chameleon_benchmark's: 0 when every
correctness check passed, 1 when one failed, 2 on a setup error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kv_read_mostly", "kv_write_durable", "dist_stripe", "wear_sim")


def step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("run.py: %s failed with exit code %d" % (cmd[0], result.returncode))


def build():
    generated = any(
        os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not generated:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
             + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "chameleon_benchmark", "-j", jobs])
    return os.path.join(BUILD, "chameleon_benchmark")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    binary = build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [
        binary,
        "workload=" + args.workload,
        "seed=%d" % args.seed,
        "seconds=%r" % args.seconds,
        "trace=%d" % args.trace,
        "out=" + os.path.join(results, tag + ".json"),
        "work_dir=" + os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid())),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    # Become chameleon_benchmark, so a signal sent to this process reaches it (and,
    # through their death signal, the servers it spawned).
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
