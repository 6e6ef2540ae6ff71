"""Flatline decay sweep: gd-flatline over n, slope of log mean grad norm.

Writes runs into runs/flatline-sweep/ and prints the fitted decay. Use
--quick for a fast smoke pass (fewer iterations).
"""

import argparse
import json
from pathlib import Path

from depthlab.experiments import ExperimentConfig, sweep


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="runs/flatline-sweep")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error(f"--seeds must be >= 1, got {args.seeds}")

    iters = 20 if args.quick else 500
    configs = [
        ExperimentConfig("gd-flatline", {"n": n, "iters": iters, "seed": s})
        for s in range(args.seeds)
        for n in (6, 8, 10, 12)
    ]
    reports = sweep(configs, outdir=args.outdir)
    summary = json.loads((Path(args.outdir) / "summary.json").read_text())
    decay = summary.get("grad_norm_decay")
    fit = f"slope {decay['slope']:.3f}, R^2 {decay['r_squared']:.3f}" if decay else "no fit"
    print(f"{sum(r.passed for r in reports)}/{len(reports)} runs passed")
    print(f"log mean grad norm vs n: {fit}")


if __name__ == "__main__":
    main()
