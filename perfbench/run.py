#!/usr/bin/env python3
"""Builds the wire-level benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_nlp --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and compiles the library and the benchmark into
.bench_build/perfbench (several minutes); later runs only re-link what
changed. The benchmark's last stdout line is the JSON result. Build output goes
to .bench_build/perfbench/build.log and, on failure, to stderr; a failed
build exits non-zero without printing a result.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to the root, so the Unix socket path stays short.
WORK_DIR = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1), "--target"] + targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode == 0:
                continue
            if step is steps[0] and len(steps) == 2 and os.path.exists(cache):
                os.remove(cache)  # Configure again next time.
            log.flush()
            with open(log_path) as failed:
                sys.stderr.write(failed.read()[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_test"]):
            return 2
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                              cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 2
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", WORK_DIR, "--commit", commit(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    bench = subprocess.Popen(command, cwd=ROOT)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
