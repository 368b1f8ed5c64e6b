#!/usr/bin/env python3
"""Compare two sets of benchmark results, or check the spread of one set.

    python3 perfbench/compare.py BEFORE AFTER
    python3 perfbench/compare.py RUNS

Each argument is a directory of files (or one file) holding the standard
output of `perfbench/run.py` runs; every `{"report": ...}` line counts as
one run. For each workload and end-to-end metric the command prints each
side's median and quartiles (`statistics.quantiles(values, n=4)`) and
whether the median moved the wrong way by more than the metric's bound.
With one set it prints the spread, (Q3 - Q1) / median, against the bound.
Runs with --trace 1 are ignored. Runs of the same workload and seed must
carry the same inputs fingerprint on both sides, or the sets are reported
as incomparable.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
# Workload-specific end-to-end metrics that the run prints with its report
# but that BENCHMARK.json cannot hold, because there every end-to-end metric
# applies to every workload: name -> (better, bound).
EXTRA_METRICS = {
    "op_ms_p90": ("lower", 0.25),
    "macro_f1": ("higher", 0.05),
    "ssl_loss_ratio": ("lower", 0.05),
}


def load_reports(path: str) -> list:
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    reports = []
    for name in files:
        with open(name) as fh:
            for line in fh:
                if line.startswith('{"report"'):
                    report = json.loads(line)["report"]
                    if report["trace"] == 0:
                        reports.append(report)
    return reports


def metric_specs() -> dict:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(EXTRA_METRICS)
    return out


def series(reports, workload: str, metric: str) -> list:
    values = []
    for r in reports:
        if r["workload"] != workload:
            continue
        entry = r["metrics"].get(metric) or r["extras"].get(metric)
        if entry is not None:
            values.append(float(entry["value"]))
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(reports, workload: str) -> str:
    runs = [r for r in reports if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    return f"{failed}/{attempted} failed, {'all correct' if correct else 'CHECKS FAILED'}"


def fingerprint_conflicts(a, b) -> list:
    seen = {(r["workload"], r["seed"]): r["fingerprint"] for r in a}
    return sorted({f"{r['workload']} seed {r['seed']}" for r in b
                   if seen.get((r["workload"], r["seed"]), r["fingerprint"]) != r["fingerprint"]})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_reports(p) for p in argv]
    if not all(sets):
        print("compare: a set holds no --trace 0 runs", file=sys.stderr)
        return 2
    specs = metric_specs()
    conflicts = fingerprint_conflicts(*sets) if len(sets) == 2 else []
    for c in conflicts:
        print(f"INCOMPARABLE: inputs differ for {c}")
    workloads = sorted({r["workload"] for s in sets for r in s})
    for w in workloads:
        print(f"== {w}: " + "; ".join(failed_share(s, w) for s in sets))
        for metric, (better, bound) in specs.items():
            sides = [series(s, w, metric) for s in sets]
            if not all(sides):
                continue
            stats = [quartiles(v) for v in sides]
            cols = "  ".join(f"n={len(v):2d} q1={q1:.6g} med={med:.6g} q3={q3:.6g}"
                             for v, (q1, med, q3) in zip(sides, stats))
            if len(sets) == 1:
                q1, med, q3 = stats[0]
                spread = (q3 - q1) / med
                verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound
                                                                 else "TOO WIDE")
                print(f"  {metric:16s} {cols}  spread {spread:.2%} of bound {bound:.0%}: {verdict}")
            else:
                base, new = stats[0][1], stats[1][1]
                change = (new - base) / base
                worse = change > bound if better == "lower" else -change > bound
                print(f"  {metric:16s} {cols}  change {change:+.2%} "
                      f"(bound {bound:.0%}, {better} is better): {'REGRESSION' if worse else 'ok'}")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
