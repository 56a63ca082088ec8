#!/usr/bin/env python3
"""Build and run the pstream360 benchmark.

    python3 perfbench/run.py --workload <fleet-1k|paper-full|zoo> \
        --seed <n> --seconds <s> --trace <0|1> [--perturb <download|digest>]

Run from the root of a source checkout. The benchmark program
(perfbench/*.cpp) and the library sources under src/ are compiled into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set) on
first use; later runs only rebuild what changed. Build output goes to
stderr, so stdout is the program's report, whose last line is the JSON
result. The exit code is the program's: nonzero when any operation failed,
or when the build failed (then nothing is printed on stdout).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-1k", "paper-full", "zoo")
# pbench360 must finish within this; the build before it is not counted.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--perturb", choices=("download", "digest"),
                        help="inject a known defect the checks must report")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "pbench360"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: pbench360 exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
