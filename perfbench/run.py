#!/usr/bin/env python3
"""Build and run the EDM fabric benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload incast_fanin --seed 1 \
        --seconds 35 --trace 0

The simulator library and edm_perfbench are built from source into
.bench_build/perfbench (Release) on every call; an up-to-date build is a
no-op. The last stdout line of edm_perfbench is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fabric.hpp")):
        sys.exit("perfbench: simulator sources not found under "
                 + os.path.join(ROOT, "src"))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "edm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    trace_file = os.path.join(BUILD, "trace-%d.edmlog" % os.getpid())
    sys.stdout.flush()
    done = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--trace-file", trace_file,
    ], cwd=ROOT)
    if os.path.exists(trace_file):
        os.remove(trace_file)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
