#!/usr/bin/env python3
"""Builds the FuzzyDB benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload paper_nested|served_point|ingest_mvcc \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
into .bench_build/perfbench (a minute or two); later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Scratch files (WAL directories) live under
.bench_work/ and are removed when the run ends; the traced run leaves its
spans in .bench_work/trace-<workload>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_nested", "served_point", "ingest_mvcc")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: FuzzyDB sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 1
    build_dir = ROOT / ".bench_build" / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work" / "{}-{}".format(args.workload, os.getpid())
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(work)]
    started = time.monotonic()
    try:
        # stdout passes straight through: its last line is the result.
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench: {} finished in {:.1f} s".format(
        args.workload, time.monotonic() - started), file=sys.stderr)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
