"""Run every experiment at its defaults and print the scoreboard.

The full pass takes ~3 s on a 2-core machine with one BLAS thread;
kernel-hardness (~1 s) is the longest run, then xavier-audit and
gd-sanity (~0.5 s each), and gd-flatline takes ~0.25 s.  --quick shrinks
the pass to ~2 s.
"""

import argparse
import sys

from depthlab.experiments import ExperimentConfig, experiment_ids, sweep

QUICK_OVERRIDES = {
    "gd-flatline": {"iters": 20},
    "telgarsky-separation": {"count": 20},
    "sq-parity-lower-bound": {"seeds": 3},
    "sq-weak-learn": {"targets": 5},
    "lipschitz-approx": {"samples": 10**4},
    "xavier-audit": {"trials": 20},
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="runs/all")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if args.workers < 1:
        ap.error(f"--workers must be >= 1, got {args.workers}")

    configs = []
    for eid in experiment_ids():
        params = dict(QUICK_OVERRIDES.get(eid, {})) if args.quick else {}
        configs.append(ExperimentConfig(eid, params))
    reports = sweep(configs, outdir=args.outdir, workers=args.workers)
    for c, r in zip(configs, reports):
        print(f"{'PASS' if r.passed else 'FAIL'}  {c.experiment:24s} {r.first_failed}{r.error}")
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} passed; summary in {args.outdir}/")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
