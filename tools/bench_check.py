#!/usr/bin/env python3
"""Compare a bench JSON report against a stored baseline.

Usage:
  tools/bench_check.py RUN.json BASELINE.json [--warn-only]
  tools/bench_check.py RUN_DIR BASELINE_DIR [--warn-only]
  tools/bench_check.py --perfbench OUTPUT PERFBENCH_BASELINE.json
  tools/bench_check.py --self-test BASELINE.json

In directory mode every BENCH_*.json in BASELINE_DIR must have a
same-named report in RUN_DIR; a missing report is a failure, not a
silent pass -- a bench that stops emitting its report must not look
green. Extra reports in RUN_DIR (new suites without a baseline yet)
are allowed.

Reports are the BENCH_<suite>.json files written by bench binaries via
`--json-out=PATH` (see bench/bench_common.h, BenchReport). Counter
metrics (ios, tuple_pairs, degree_evaluations, comparisons) are
deterministic for a seeded workload at num_threads = 1 and must match
the baseline exactly; wall/cpu time and peak memory get ratio tolerances
because CI machines vary. A regression prints one line per violation and
exits 1 (or 0 with --warn-only, the pull-request mode). --self-test
injects a synthetic 2x regression, and separately a single changed
comparisons count, into copies of the baseline and verifies the
comparison catches both -- a guard against the checker itself rotting
into a no-op.

--perfbench reads the stdout of a `perfbench/run.py` run (a file, or -
for stdin), whose last line is the result JSON, and requires every
counter in the baseline's "exact" map (PERFBENCH_<workload>.json, the
engine.tuple_pairs.* and engine.degree_evals.* of a seeded run, and
its engine.naive_fallback_frac) to match the run's metric exactly, by
the same rule as the counters above.
The PERFBENCH_ prefix keeps these files out of directory mode.
"""

import argparse
import copy
import glob
import json
import os
import sys

# Metrics that must match the baseline exactly (deterministic counters;
# only enforced when both reports ran single-threaded).
EXACT_METRICS = ("ios", "tuple_pairs", "degree_evaluations", "comparisons")

# metric -> max allowed run/baseline ratio. Values are generous because
# shared CI runners are noisy; the exact counters above are the precise
# tripwire, these catch order-of-magnitude rot.
RATIO_TOLERANCES = {
    "wall_seconds": 3.0,
    "cpu_seconds": 3.0,
    "peak_mem_bytes": 1.25,
}

# Below this absolute value a ratio check is skipped: a 2 ms wall time
# tripling to 6 ms is scheduler noise, not a regression.
RATIO_FLOORS = {
    "wall_seconds": 0.05,
    "cpu_seconds": 0.05,
    "peak_mem_bytes": 64 * 1024,
}


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(run, baseline):
    """Returns a list of human-readable problem strings (empty = pass)."""
    problems = []
    for field in ("schema_version", "suite", "smoke", "threads"):
        if run.get(field) != baseline.get(field):
            problems.append(
                f"{field} mismatch: run={run.get(field)!r} "
                f"baseline={baseline.get(field)!r}"
            )
    if any("schema_version" in p or "suite" in p for p in problems):
        # Incomparable files; per-bench checks would just add noise.
        return problems

    exact_ok = run.get("threads") == 1 and baseline.get("threads") == 1
    base_by_name = {b["name"]: b for b in baseline.get("benches", [])}
    run_by_name = {b["name"]: b for b in run.get("benches", [])}

    for name in base_by_name:
        if name not in run_by_name:
            problems.append(f"bench '{name}' missing from run")
    for name, bench in run_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            # New configurations are fine; they become baseline on reseed.
            continue
        if exact_ok:
            for metric in EXACT_METRICS:
                if bench.get(metric) != base.get(metric):
                    problems.append(
                        f"{name}: {metric} changed "
                        f"{base.get(metric)} -> {bench.get(metric)} "
                        f"(deterministic counter, must match exactly)"
                    )
        for metric, tolerance in RATIO_TOLERANCES.items():
            base_value = base.get(metric, 0)
            run_value = bench.get(metric, 0)
            if max(base_value, run_value) < RATIO_FLOORS[metric]:
                continue
            if base_value == 0:
                problems.append(
                    f"{name}: {metric} appeared ({run_value}) with a zero "
                    f"baseline; reseed the baseline"
                )
            elif run_value > base_value * tolerance:
                problems.append(
                    f"{name}: {metric} regressed {base_value} -> "
                    f"{run_value} ({run_value / base_value:.2f}x > "
                    f"{tolerance}x tolerance)"
                )
    return problems


def compare_perfbench(result, baseline):
    """Checks a perfbench result's metrics against the baseline's exact
    counters; returns problem strings."""
    metrics = result.get("metrics", {})
    problems = []
    for name, expected in baseline["exact"].items():
        value = metrics.get(name, {}).get("value")
        if value != expected:
            problems.append(f"{name} changed {expected} -> {value} "
                            f"(deterministic counter, must match exactly)")
    return problems


def load_perfbench_result(path):
    """The result JSON on the last non-empty line of a perfbench run's
    stdout (`path`, or - for stdin)."""
    with (sys.stdin if path == "-" else open(path)) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no perfbench output")
    return json.loads(lines[-1])


def self_test(baseline):
    """Doubles every metric in a copy of the baseline, and in a second
    copy changes only one bench's comparisons count by one; the
    comparison must flag both, or the checker has rotted into a no-op."""
    if "exact" in baseline:
        run = {"metrics": {name: {"value": value * 2 + 1}
                           for name, value in baseline["exact"].items()}}
        problems = compare_perfbench(run, baseline)
    else:
        injected = copy.deepcopy(baseline)
        for bench in injected.get("benches", []):
            for metric in EXACT_METRICS + tuple(RATIO_TOLERANCES):
                if metric in bench:
                    bench[metric] *= 2
        problems = compare(injected, baseline)
        # Counters are exact only in single-threaded reports.
        if baseline.get("threads") == 1:
            benches = baseline.get("benches", [])
            if not benches or "comparisons" not in benches[0]:
                print("self-test FAILED: the baseline records no "
                      "comparisons")
                return 1
            one_off = copy.deepcopy(baseline)
            one_off["benches"][0]["comparisons"] += 1
            if not compare(one_off, baseline):
                print("self-test FAILED: a changed comparisons count was "
                      "not detected")
                return 1
    if not problems:
        print("self-test FAILED: 2x regression was not detected")
        return 1
    print(f"self-test passed: 2x regression detected ({len(problems)} "
          f"violations, e.g. '{problems[0]}')")
    return 0


def compare_files(run_path, baseline_path):
    """Compares one report/baseline pair; returns problem strings."""
    run, baseline = load(run_path), load(baseline_path)
    problems = compare(run, baseline)
    if not problems:
        print(f"bench_check: {len(run.get('benches', []))} benches within "
              f"tolerance of {baseline_path}")
    return problems


def compare_dirs(run_dir, baseline_dir):
    """Every baseline suite must have a matching run report."""
    problems = []
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        problems.append(f"no BENCH_*.json baselines found in {baseline_dir}")
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        run_path = os.path.join(run_dir, name)
        if not os.path.exists(run_path):
            problems.append(
                f"{name}: baseline exists but the run produced no report "
                f"in {run_dir} (bench not run, or stopped emitting "
                f"--json-out)"
            )
            continue
        problems.extend(
            f"{name}: {p}" for p in compare_files(run_path, baseline_path)
        )
    return problems


def main():
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON report against a baseline."
    )
    parser.add_argument("run", help="BENCH_<suite>.json from this run, or "
                        "a directory of reports (or the baseline itself "
                        "with --self-test)")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline (or baseline directory) "
                        "to compare against")
    parser.add_argument("--warn-only", action="store_true",
                        help="report violations but exit 0 (PR mode)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker flags an injected 2x "
                        "regression against RUN itself")
    parser.add_argument("--perfbench", action="store_true",
                        help="RUN is perfbench/run.py stdout (or -); "
                        "match BASELINE's exact counters")
    args = parser.parse_args()

    if args.self_test:
        return self_test(load(args.run))
    if args.baseline is None:
        parser.error("BASELINE is required unless --self-test")
    if args.perfbench:
        baseline = load(args.baseline)
        try:
            result = load_perfbench_result(args.run)
        except ValueError as error:
            print(f"bench_check: {args.run}: no perfbench result on the "
                  f"last line ({error})")
            return 1
        problems = compare_perfbench(result, baseline)
        if not problems:
            print(f"bench_check: {len(baseline['exact'])} perfbench "
                  f"counters equal to {args.baseline}")
            return 0
        for problem in problems:
            print(f"bench_check: {problem}")
        return 0 if args.warn_only else 1

    if os.path.isdir(args.run) != os.path.isdir(args.baseline):
        parser.error("RUN and BASELINE must both be files or both be "
                     "directories")
    if os.path.isdir(args.run):
        problems = compare_dirs(args.run, args.baseline)
    else:
        problems = compare_files(args.run, args.baseline)
    if not problems:
        return 0
    for problem in problems:
        print(f"bench_check: {problem}")
    if args.warn_only:
        print("bench_check: violations found (warn-only mode, exiting 0)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
