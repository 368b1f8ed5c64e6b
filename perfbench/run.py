#!/usr/bin/env python3
"""aptstage benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics from a traced run. Human-readable lines
come first, then one `{"report": ...}` JSON line with everything the run
recorded (inputs fingerprint, environment, extra metrics, checks), and last
the result line: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# One BLAS thread: never more than nproc, and the steadiest choice on a
# shared host; on a 2-vCPU host two threads ran a pretraining step no faster.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pretrain", "finetune", "stream-infer")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "aptstage", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/aptstage; run from a checkout root")
    sys.path.insert(0, SRC)
    import aptstage
    if not os.path.abspath(aptstage.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported aptstage from {aptstage.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, state, seconds: float):
    """Whole rounds until `seconds` have passed and at least the workload's
    `min_rounds` have run: (elapsed, rounds). Only the last round keeps its
    full output: holding every round's graphs would slow later rounds
    through a growing heap."""
    rounds = []
    t0 = perf_counter()
    while True:
        if rounds:
            rounds[-1].output = None
        rounds.append(workload.round(state))
        if perf_counter() - t0 >= seconds and len(rounds) >= workload.min_rounds:
            return perf_counter() - t0, rounds


def _counts(rounds):
    """(attempted, failed) over all rounds."""
    return sum(len(r.ops) for r in rounds), sum(r.failed for r in rounds)


def _typical_ops(rounds) -> list:
    """Per operation, the median over the rounds. Every round repeats the
    same work on the same inputs, so operation j of every round is the same
    operation. Other tenants of a shared host slow it both in bursts of a
    second or two and in phases of tens of seconds. On ten `stream-infer`
    seeds the fastest of the rounds spread 25 % (quartile distance over
    median) between runs and the median of the rounds 15 %: the fastest
    round is one lucky burst, the median stands for the whole run."""
    return [statistics.median(ts) for ts in zip(*(r.ops for r in rounds), strict=True)]


def _throughput(rounds) -> float:
    """Windows of one round over the sum of its typical operation times."""
    return rounds[-1].windows / sum(_typical_ops(rounds))


def _run_untraced(workload, args, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up's objects before timing the next
        t0 = perf_counter()
        state = workload.setup(args.seed, workdir)
        setup_times.append(perf_counter() - t0)
    elapsed, rounds = _measure(workload, state, args.seconds)
    attempted, failed = _counts(rounds)
    ops = [t for r in rounds for t in r.ops]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "windows_per_s": (_throughput(rounds), "windows/s"),
        "op_ms_p50": (statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # A tail needs ten samples beyond it; only finetune runs that many operations.
    extras = {"op_ms_p90": (statistics.quantiles(ops, n=10)[-1] * 1e3, "ms")} if len(ops) >= 100 else {}
    info = {"setup_s_each": setup_times, "timed_s": elapsed, "rounds": len(rounds),
            "windows_per_timed_s": sum(r.windows for r in rounds) / elapsed,
            "ops_ms": [[round(t * 1e3, 1) for t in r.ops] for r in rounds]}
    return state, rounds, metrics, extras, info, attempted, failed


def _run_traced(workload, args, workdir):
    import tracing
    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    tracing.install(tracer, patcher)
    try:
        state = workload.setup(args.seed, workdir)
        t0 = perf_counter()
        traced_s, traced = _measure(workload, state, args.seconds)
        t1 = perf_counter()
    finally:
        patcher.restore()
    traced[-1].output = None
    _, plain = _measure(workload, state, args.seconds)
    attempted, failed = _counts(traced)
    traced_wps = _throughput(traced)
    plain_wps = _throughput(plain)
    metrics = tracing.layer_metrics(tracer.totals())
    info = {
        "coverage": tracer.coverage(t0, t1),
        "windows_per_s_traced": traced_wps,
        "windows_per_s_untraced": plain_wps,
        "overhead": 1.0 - traced_wps / plain_wps,
        "timed_s": traced_s,
        "rounds": len(traced),
        "spans": {name: {"calls": c, "incl_s": i, "self_s": s, "count": n}
                  for name, (c, i, s, n) in sorted(tracer.totals().items())},
    }
    return state, traced + plain, metrics, {}, info, attempted, failed


def _run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    _import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = _run_traced if args.trace else _run_untraced
        state, rounds, metrics, extras, info, attempted, failed = run(workload, args, workdir)
        checks = workload.check(state, rounds)
    checks.extras.update(extras)
    if args.trace:
        checks.expect(info["coverage"] >= 0.9,
                      f"top-level spans cover {info['coverage']:.1%} of the timed section")
    correct = not checks.failures
    for message in checks.failures:
        print(f"CHECK FAILED: {message}")
    for name, (value, unit) in {**metrics, **checks.extras}.items():
        print(f"{args.workload:12s} {name:38s} {value} {unit}")
    if args.trace:
        print(f"{args.workload:12s} tracing overhead {info['overhead']:.2%} of windows_per_s "
              f"({info['windows_per_s_untraced']:.1f} untraced, "
              f"{info['windows_per_s_traced']:.1f} traced); "
              f"top-level span coverage {info['coverage']:.1%}")
    print(f"{args.workload:12s} attempted {attempted} failed {failed} correct {correct}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "fingerprint": workload.fingerprint(state),
        "environment": _environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in checks.extras.items()},
        "failures": checks.failures,
        "info": info,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results
    with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
