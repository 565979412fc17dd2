#!/usr/bin/env python3
"""Build the migration benchmark from this checkout and run one workload.

    python3 migbench/run.py --workload linpack|bitonic|fleet --seed N \
        --seconds S --trace 0|1
    python3 migbench/run.py --selftest

Run from the root of a checkout. The library and the benchmark are built
from source into .bench_build/ (CMake, Release); an up-to-date build is
reused. The benchmark's last line of standard output is its JSON result,
and its exit code is passed through. --trace 1 also writes a Chrome trace
to .bench_build/traces/. Exits 2 without a result when the checkout holds
no library sources or the build fails.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"migbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from the root of a checkout")
    # Build output goes to stderr: stdout carries only the benchmark's result.
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                  "--target", "migbench", "migbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests on tiny inputs")
    args = parser.parse_args()

    if args.selftest:
        build()
        sys.exit(run([str(BUILD_DIR / "migbench_selftest")]))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    cmd = [str(BUILD_DIR / "migbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
