#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload docs|records|requests \
        --seed N --seconds S --trace 0|1

The first run configures and builds the flap library and flap_perfbench
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only check that the build is current. Build output goes to standard
error, so the last line of standard output is flap_perfbench's JSON
result. The exit code is flap_perfbench's: 0 only when every output check
passed. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode


def build(build_dir, env):
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            if run_quiet(["cmake", "-S", HERE, "-B", build_dir], env) != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_quiet(["cmake", "--build", build_dir, "-j", jobs], env) != 0:
            fail("build failed")
    return os.path.join(build_dir, "flap_perfbench")


def revision():
    """(commit, dirty) of the checkout, or unknown outside a git tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if head.returncode != 0:
        return "unknown", "unknown"
    return head.stdout.strip(), "1" if status.stdout.strip() else "0"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["docs", "records", "requests"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Pipeline.h")):
        fail(f"the flap sources are missing under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # Compiler temporaries (the build, the emitted-recognizer compiles of
    # the traced run) stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(build_dir, env)

    commit, dirty = revision()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit, "--dirty", dirty]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
