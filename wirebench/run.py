#!/usr/bin/env python3
"""Builds and runs the wire benchmark (wirebench/wire_bench.cc).

Usage, from the root of a source checkout:

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the library sources under src/ plus
the wire_bench binary in Release mode, into $CARGO_TARGET_DIR/wirebench
(default .bench_build/wirebench); later calls only re-check the build.
Build output goes to stderr.  wire_bench's stdout is passed through, so the
last line is its JSON result; with --trace 1 the spans of the run are
written next to the build as spans-<workload>-<seed>.jsonl.

The exit code is wire_bench's, or 1 when the build fails (for example when
the checkout holds no src/ tree).
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700  # configure + build, all steps together
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "wirebench"))


def build(out_dir):
    """Configures (once) and builds; returns the binary's path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(out_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()),
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"wirebench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"wirebench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "wire_bench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("wirebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
