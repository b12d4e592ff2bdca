#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload fresh-session --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It builds `perfbench/` (which compiles
the repository's `src/` library from source) into `.bench_build/perfbench`,
runs one workload, and prints its output: the metrics by name with
their units and, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fresh-session", "long-history", "service-mixed")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # One build at a time per checkout.
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(build_root, "perfbench"))
    work_dir = os.path.join(build_root, "runs",
                            "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
