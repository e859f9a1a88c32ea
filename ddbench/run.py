#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 ddbench/run.py --workload <pi2_infer|stable_neg|serve_mix> \
        --seed N --seconds S --trace <0|1>
    python3 ddbench/run.py --selfcheck

The first call configures and builds ddbench/ (which compiles the library
from src/) with CMake into $CARGO_TARGET_DIR/ddbench, default
.bench_build/ddbench under the checkout; later calls only re-check the
build. The benchmark binary prints a human-readable report and, as its last
stdout line, one JSON object with the keys correct, attempted, failed and
metrics. Traced runs also write their retained span trees next to the
binary. Exit status: 0 on a correct run, nonzero on a build failure, a
wrong verdict or a failed self-check (then no result line is promised).
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(source_dir, build_dir):
    """Configures (once) and builds the ddbench target; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "ddbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("ddbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["pi2_infer", "stable_neg", "serve_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the determinism self-check instead")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "ddbench")
    if not build(source_dir, build_dir):
        return 1

    binary = os.path.join(build_dir, "ddbench")
    if args.selfcheck:
        cmd = [binary, "--selfcheck"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ddbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
