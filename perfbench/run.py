#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload fib-fine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to .bench_build/perfbench
(CMake, the program's default RelWithDebInfo build type); later runs only
rebuild what changed.  After every build the benchmark's self-test runs.
Then the harness runs the workload and the last line of standard output is
the result: one JSON object with the keys correct, attempted, failed and
metrics.  --trace 1 makes the traced run instead, which prints the
per-layer metrics and writes its spans to
.bench_build/perfbench-spans/<workload>-seed<seed>.json.

Exits non-zero, printing no result, when the build, the self-test or the
run fails, or when the result line does not name exactly the metrics that
BENCHMARK.json lists.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail(what + " failed")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ninja = shutil.which("ninja") is not None
        build_file = os.path.join(BUILD_DIR,
                                  "build.ninja" if ninja else "Makefile")
        if not os.path.exists(build_file):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
            if ninja:
                cmd += ["-G", "Ninja"]
            run_quiet(cmd, "configure")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], "build")
    run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest")], "self-test")


def revision():
    """A digest of the sources that were built (src/ and perfbench/), and
    the git commit they sit on when the checkout is a git repository.  The
    digest tells apart two trees whose uncommitted changes differ."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sources = "sha256:" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = ""
    return sources + (",git:" + sha if sha else "")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys")
    if result["attempted"] < 1:
        fail("the run attempted nothing")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(spec, trace):
        fail("the metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(BUILD_ROOT, "perfbench-spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-file", os.path.join(
            span_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    # Its own process group, so a run that overstays is killed together
    # with the job processes it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail("the run exited with code %d" % proc.returncode)
    lines = stdout.rstrip("\n").split("\n")
    check_result(lines[-1], spec, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
