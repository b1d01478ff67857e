#!/usr/bin/env python3
"""Build and run the deslp end-to-end benchmark.

    python3 perfbench/run.py --workload fig10 --seed 42 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program (perfbench/CMakeLists.txt) into
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the program's JSON result. Spans of a
--trace 1 run are written to .bench_out/. Exits non-zero, printing no
result, when the build fails or the arguments are malformed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig10", "fleet1000", "observed", "sweep")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "deslp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "deslp_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
