"""Certify the shallow-net loss floor against the 2^n-band square wave.

Runs the separation experiment and prints the certification records
(depth, width, pieces, bound, crossings, loss, lower_bound) summary.
"""

import argparse
import csv
import sys
from pathlib import Path

from depthlab.experiments import ConfigError, ExperimentConfig, run


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=14)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--width", type=int, default=32)
    ap.add_argument("--outdir", default="runs/separation")
    args = ap.parse_args(argv)

    try:
        cfg = ExperimentConfig("telgarsky-separation", {
            "n": args.n, "count": args.count, "width": args.width,
        })
        rep = run(cfg, outdir=args.outdir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        sys.exit(2)
    series = Path(args.outdir) / cfg.run_name() / "series.csv"
    with open(series) as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r["loss"]) for r in rows]
    crossings = [int(r["crossings"]) for r in rows]
    print(f"{'PASS' if rep.passed else 'FAIL'}: {len(rows)} nets at n={args.n}")
    print(f"min sign loss {min(losses):.6f}; max crossings {max(crossings)}; "
          f"width-based bound {rep.metrics['width_based_lower_bound']:.3g} "
          f"(vacuous: {rep.metrics['width_bound_vacuous']})")
    print(f"records: {series}")


if __name__ == "__main__":
    main()
