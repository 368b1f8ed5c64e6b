#!/usr/bin/env python3
"""Measure two checkouts with perfbench and record the pairs in one JSON file.

    python3 scripts/bench.py PARENT_DIR CHANGE_DIR --seeds 1 2 3 --out BENCH_11.json

For each seed, one pair of runs: `perfbench/run.py --workload all --trace 0`
for BENCHMARK.json's `run_seconds` in PARENT_DIR and in CHANGE_DIR, each in a
fresh process (run.py starts one more per workload) that imports the program
from that checkout's ./src. The side that runs first alternates from pair to
pair, so a slow phase of a shared host does not always fall on one side. The
output holds every run's report, the environment, each checkout's identity
(its commit and, if its files differ from that commit, a sha256 of the
difference), and per workload and metric both sides' quartiles, the verdict
under `perfbench/compare.py`'s bounds, the pairs that the change won and the
parent's quartile distance. After the pairs, each side runs once more with
`--trace 1` on the first seed, and the per-layer metrics of those two runs
(tape nodes and bytes, per-layer times) are recorded next to the pairs. Last,
each side runs the seed-0 `scripts/run_benchmark.py` (criterion 8, about a
minute) in a fresh process with one BLAS thread, and its macro-F1, TFR, SSL
ratio and the ablation's figures go under `quality`, so a change that moves
results shows up. The exit status is 1 if a metric regressed or the two sides
ran different inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402

SIDES = ("parent", "change")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY = ("macro_f1", "tfr", "macro_f1_ablation", "tfr_ablation", "ssl_ratio", "runtime_s")


def _git(path: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", path, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False).stdout


def _identity(path: str) -> dict:
    """The commit checked out in `path`; if tracked files differ from it or
    untracked files exist, `dirty_sha256` hashes `git diff HEAD` and every
    untracked file's name and content, so the record names the measured tree."""
    commit = _git(path, "rev-parse", "HEAD").decode().strip() or None
    digest = hashlib.sha256(_git(path, "diff", "HEAD", "--binary"))
    untracked = sorted(n for n in _git(path, "ls-files", "--others", "--exclude-standard",
                                       "-z").split(b"\0") if n)
    for name in untracked:
        with open(os.path.join(path, name.decode()), "rb") as fh:
            digest.update(name + b"\0" + fh.read())
    dirty = digest.digest() != hashlib.sha256(b"").digest()
    return {"commit": commit, "dirty_sha256": digest.hexdigest() if dirty else None}


def _run(path: str, seed: int, seconds: float, trace: int = 0) -> list:
    """The report dicts of one `--workload all` run in checkout `path`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: {' '.join(cmd)} in {path} exited with {proc.returncode}")
    return [json.loads(line)["report"] for line in proc.stdout.splitlines()
            if line.startswith('{"report"')]


def _quality(path: str) -> dict:
    """The `QUALITY` figures of one seed-0 `scripts/run_benchmark.py` run in
    checkout `path`, importing the program from its ./src."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(path, "src"),
                                                    os.environ.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "benchmark.json")
        cmd = [sys.executable, "scripts/run_benchmark.py", "--seeds", "0", "--out", out]
        proc = subprocess.run(cmd, cwd=path, env=env, stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: {' '.join(cmd)} in {path} exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            (result,) = json.load(fh)
    return {k: result[k] for k in QUALITY}


def _verdicts(reports: dict) -> dict:
    """Per workload: each side's failed share and, per metric, both sides'
    quartiles, the verdict under compare.py's bound, pairs won by the change."""
    out = {}
    for workload in sorted({r["workload"] for side in SIDES for r in reports[side]}):
        metrics = {}
        for metric, (better, bound) in compare.metric_specs().items():
            per_run = {side: [compare.series([r], workload, metric) for r in reports[side]
                              if r["workload"] == workload] for side in SIDES}
            flat = {side: [v for vals in per_run[side] for v in vals] for side in SIDES}
            if not all(flat.values()):
                continue
            stats = {side: dict(zip(("q1", "median", "q3"), compare.quartiles(flat[side])))
                     for side in SIDES}
            sign = -1 if better == "lower" else 1
            base, new = stats["parent"]["median"], stats["change"]["median"]
            pairs = [(p[0], c[0]) for p, c in zip(per_run["parent"], per_run["change"]) if p and c]
            parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            metrics[metric] = {
                **stats,
                "relative_change": (new - base) / base,
                "bound": bound,
                "better": better,
                "verdict": "REGRESSION" if -sign * (new - base) / base > bound else "ok",
                "pairs": len(pairs),
                "wins": wins,
                "parent_iqr": parent_iqr,
                "clear_gain": wins >= 0.9 * len(pairs) and sign * (new - base) > parent_iqr,
            }
        out[workload] = {"failed": {side: compare.failed_share(reports[side], workload)
                                    for side in SIDES},
                         "metrics": metrics}
    return out


def _layers(traced: dict) -> dict:
    """Per workload and per-layer metric: its unit and each side's value in
    the traced runs."""
    out = {}
    for side in SIDES:
        for r in traced[side]:
            for metric, m in r["metrics"].items():
                row = out.setdefault(r["workload"], {}).setdefault(metric, {"unit": m["unit"]})
                row[side] = m["value"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    with open(compare.BENCHMARK_JSON) as fh:
        seconds = json.load(fh)["run_seconds"]
    dirs = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))

    runs = []
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            reports = _run(dirs[side], seed, seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "position": position,
                         "reports": reports})
            wps = {r["workload"]: round(r["metrics"]["windows_per_s"]["value"], 1) for r in reports}
            print(f"pair {pair} seed {seed} {side:6s} windows_per_s {wps}", flush=True)

    traced = {side: _run(dirs[side], args.seeds[0], seconds, trace=1) for side in SIDES}
    layers = _layers(traced)
    for workload, row in layers.items():
        print(f"traced {workload}: " + "; ".join(
            f"{m} {row[m]['parent']:.4g} -> {row[m]['change']:.4g}"
            for m in ("nn.tape_nodes", "nn.tape_mb") if m in row))
    quality = {side: _quality(dirs[side]) for side in SIDES}
    print("quality (seed-0 run_benchmark): " + "; ".join(
        f"{k} {quality['parent'][k]:.4g} -> {quality['change'][k]:.4g}" for k in QUALITY))

    # In pair order, so a side's n-th report of a workload comes from pair n.
    reports = {side: [r for run in runs if run["side"] == side for r in run["reports"]]
               for side in SIDES}
    conflicts = compare.fingerprint_conflicts(reports["parent"], reports["change"])
    verdicts = _verdicts(reports)
    for c in conflicts:
        print(f"INCOMPARABLE: inputs differ for {c}")
    regressions = []
    for workload, row in verdicts.items():
        print(f"== {workload}: " + "; ".join(row["failed"][side] for side in SIDES))
        for metric, v in row["metrics"].items():
            print(f"  {metric:16s} median {v['parent']['median']:.6g} -> "
                  f"{v['change']['median']:.6g} ({v['relative_change']:+.2%}, bound {v['bound']:.0%}), "
                  f"won {v['wins']}/{v['pairs']}: {v['verdict']}")
            if v["verdict"] == "REGRESSION":
                regressions.append(f"{workload} {metric}")

    doc = {
        "checkouts": {side: {"dir": os.path.basename(d), **_identity(d)}
                      for side, d in dirs.items()},
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "blas": sorted({r["environment"]["blas"] for run in runs for r in run["reports"]}),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "threads_in_runs": runs[0]["reports"][0]["environment"]["threads"],
        },
        "seconds": seconds,
        "seeds": args.seeds,
        "incomparable": conflicts,
        "regressions": regressions,
        "verdicts": verdicts,
        "runs": runs,
        "traced": {"seed": args.seeds[0], "layers": layers, "reports": traced},
        "quality": {"seed": 0, **quality},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 1 if conflicts or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
