#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 20 --trace 0

The harness and the `rangesyn` daemon it drives are compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the current directory; the
first run builds, later runs reuse the build. The last line of standard
output is the run's JSON result. Exits non-zero, without a result, when the
build fails or the rangesyn sources are not next to this directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-point", "serve-batch", "build")


def build_harness(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: the rangesyn sources are missing next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build_dir]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    make = ["cmake", "--build", build_dir, "--target", "perfbench_harness",
            "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="self-test fault (see selftest.py)")
    args = parser.parse_args()

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    harness = build_harness(os.path.join(out_root, "perfbench"))
    if harness is None:
        return 2

    workdir = os.path.join(out_root, "perfbench-work",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [harness, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + workdir]
    if args.inject:
        cmd.append("--inject=" + args.inject)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        trace = os.path.join(workdir, "trace-%s.json" % args.workload)
        if os.path.isfile(trace):
            keep = os.path.join(out_root, "perfbench-traces")
            os.makedirs(keep, exist_ok=True)
            shutil.move(trace, os.path.join(
                keep, "trace-%s-seed%d.json" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
