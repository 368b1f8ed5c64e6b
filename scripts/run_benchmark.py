#!/usr/bin/env python3
"""Run the synthetic end-to-end benchmark (pretraining vs. ablation).

Example:
    python3 scripts/run_benchmark.py --seeds 0 1 2 --out benchmark.json
"""
from __future__ import annotations

import argparse
import json
import sys

from aptstage.benchmark import run_benchmark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--out", default=None, help="write full results JSON here")
    args = ap.parse_args(argv)

    results = []
    for seed in args.seeds:
        res = run_benchmark(seed)
        results.append(res)
        print(f"seed={seed}  macro_f1={res['macro_f1']:.4f}  "
              f"tfr={res['tfr']:.4f}  tfr_ablation={res['tfr_ablation']:.4f}  "
              f"ssl_ratio={res['ssl_ratio']:.3f}  runtime={res['runtime_s']:.0f}s")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
