#!/usr/bin/env python3
"""Gate the cost-based planner's cardinality estimates with q-error.

Usage:
  tools/estimate_check.py [--shell PATH] [--warn-only]
                          [--median-max 2.0] [--qmax-max 16.0]
                          [--json-out PATH]

Runs a seeded workload of generated relations (the shell's `.gen`
command) under EXPLAIN ANALYZE with --explain-json, collects every
operator span that carries both an estimate (est_rows) and an actual
cardinality (rows_out), and computes the per-span q-error

    q = max(est, act) / min(est, act)     (both floored at 1; 1.0 = perfect)

The gate fails when the median q-error exceeds --median-max (default
2.0) or any single estimate is off by more than --qmax-max (default
16x). Every violation prints one line; --warn-only reports but exits 0
(the pull-request mode, like tools/bench_check.py).

The workload mixes the paper's type J experimental query at several
fan-outs with 3- and 4-level chain queries over random relations, so
both the filter/link estimators (stats/column_stats) and the chain
interval estimates (engine/join_order) are exercised; a type J query
and the 3-level chain also run under WITH D >= 0.5, where the filters
cut and the windows run on 0.5-cuts.
"""

import argparse
import json
import subprocess
import sys

# Each entry: (name, setup dot-commands, EXPLAIN ANALYZE statement).
# Seeds are fixed so the gate is deterministic; changing the workload
# deliberately is fine, silently weakening it is not -- the sentinel
# check below requires a minimum number of estimated spans.
WORKLOAD = [
    (
        "typej_c6",
        [".gen typej 7 200 300 6"],
        "EXPLAIN ANALYZE SELECT R.X FROM R WHERE R.Y IN "
        "(SELECT S.Z FROM S WHERE S.V = R.U);",
    ),
    (
        "typej_c12",
        [".gen typej 11 150 240 12"],
        "EXPLAIN ANALYZE SELECT R.X FROM R WHERE R.Y IN "
        "(SELECT S.Z FROM S WHERE S.V = R.U);",
    ),
    (
        "typej_c3_sparse",
        [".gen typej 23 300 120 3"],
        "EXPLAIN ANALYZE SELECT R.X FROM R WHERE R.Y IN "
        "(SELECT S.Z FROM S WHERE S.V = R.U);",
    ),
    (
        "chain_k3",
        [
            ".gen rand A 71 3 60",
            ".gen rand B2 72 2 12",
            ".gen rand C3 73 2 60",
        ],
        "EXPLAIN ANALYZE SELECT A.C0 FROM A WHERE A.C1 IN "
        "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2 AND B2.C0 IN "
        "(SELECT C3.C0 FROM C3 WHERE C3.C1 = B2.C1));",
    ),
    # Under WITH D >= 0.5 the filters cut, and the IN family's window
    # pairs distinct bindings on 0.5-cuts: the estimates must see both.
    (
        "typej_c6_with",
        [".gen typej 7 200 300 6"],
        "EXPLAIN ANALYZE SELECT R.X FROM R WHERE R.Y IN "
        "(SELECT S.Z FROM S WHERE S.V = R.U) WITH D >= 0.5;",
    ),
    (
        "chain_k3_with",
        [
            ".gen rand A 71 3 60",
            ".gen rand B2 72 2 12",
            ".gen rand C3 73 2 60",
        ],
        "EXPLAIN ANALYZE SELECT A.C0 FROM A WHERE A.C1 IN "
        "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2 AND B2.C0 IN "
        "(SELECT C3.C0 FROM C3 WHERE C3.C1 = B2.C1)) WITH D >= 0.5;",
    ),
    (
        "chain_k4",
        [
            ".gen rand A 81 3 40",
            ".gen rand B2 82 2 10",
            ".gen rand C3 83 2 40",
            ".gen rand D4 84 2 10",
        ],
        "EXPLAIN ANALYZE SELECT A.C0 FROM A WHERE A.C1 IN "
        "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2 AND B2.C0 IN "
        "(SELECT C3.C0 FROM C3 WHERE C3.C1 = B2.C1 AND C3.C0 IN "
        "(SELECT D4.C0 FROM D4 WHERE D4.C1 = C3.C1)));",
    ),
]

# A run that yields fewer estimated spans than this has lost coverage
# (estimates silently disabled, markers unparsed, ...) and fails even if
# the q-errors of the spans that remain look fine.
MIN_SPANS = 10

BEGIN_MARKER = "-- trace json begin"
END_MARKER = "-- trace json end"


def run_query(shell, setup, query):
    """Runs one workload entry; returns the parsed span list."""
    script = "\n".join(setup + [query]) + "\n"
    proc = subprocess.run(
        [shell, "--quiet", "--explain-json", "-c", script],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"shell exited {proc.returncode}: {proc.stderr.strip()}"
        )
    out = proc.stdout
    begin = out.find(BEGIN_MARKER)
    end = out.find(END_MARKER)
    if begin < 0 or end < 0 or end <= begin:
        raise RuntimeError("trace JSON markers not found in shell output")
    payload = out[begin + len(BEGIN_MARKER):end].strip()
    return json.loads(payload)


def q_error(est, act):
    est = max(float(est), 1.0)
    act = max(float(act), 1.0)
    return max(est / act, act / est)


def collect(spans):
    """(op, est, act, q) for every span carrying both cardinalities."""
    rows = []
    for span in spans:
        est = span.get("est_rows")
        act = span.get("rows_out")
        if est is None or act is None:
            continue
        rows.append((span.get("op", "?"), est, act, q_error(est, act)))
    return rows


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def main():
    parser = argparse.ArgumentParser(
        description="Gate planner estimate accuracy by per-span q-error."
    )
    parser.add_argument("--shell", default="build/tools/fuzzydb_shell",
                        help="path to the fuzzydb_shell binary")
    parser.add_argument("--median-max", type=float, default=2.0,
                        help="fail when the median q-error exceeds this")
    parser.add_argument("--qmax-max", type=float, default=16.0,
                        help="fail when any span's q-error exceeds this")
    parser.add_argument("--warn-only", action="store_true",
                        help="report violations but exit 0 (PR mode)")
    parser.add_argument("--json-out", default="",
                        help="also write the per-span table as JSON")
    args = parser.parse_args()

    all_rows = []
    problems = []
    for name, setup, query in WORKLOAD:
        try:
            spans = run_query(args.shell, setup, query)
        except (RuntimeError, json.JSONDecodeError) as error:
            problems.append(f"{name}: {error}")
            continue
        rows = collect(spans)
        if not rows:
            problems.append(f"{name}: no spans carried estimates")
            continue
        worst = max(q for _, _, _, q in rows)
        print(f"estimate_check: {name}: {len(rows)} estimated spans, "
              f"worst q-error {worst:.2f}")
        for op, est, act, q in rows:
            all_rows.append(
                {"query": name, "op": op, "est": est, "act": act, "q": q}
            )
            if q > args.qmax_max:
                problems.append(
                    f"{name}: {op} estimate {est} vs actual {act} "
                    f"(q-error {q:.2f} > {args.qmax_max:g}x cap)"
                )

    if len(all_rows) < MIN_SPANS:
        problems.append(
            f"only {len(all_rows)} estimated spans collected "
            f"(expected >= {MIN_SPANS}); estimate coverage has shrunk"
        )
    if all_rows:
        med = median([row["q"] for row in all_rows])
        print(f"estimate_check: {len(all_rows)} spans total, median "
              f"q-error {med:.2f} (gate {args.median_max:g})")
        if med > args.median_max:
            problems.append(
                f"median q-error {med:.2f} > {args.median_max:g}"
            )

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"spans": all_rows}, f, indent=1)
            f.write("\n")

    if not problems:
        print("estimate_check: PASS")
        return 0
    for problem in problems:
        print(f"estimate_check: {problem}")
    if args.warn_only:
        print("estimate_check: violations found (warn-only mode, exiting 0)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
