"""Command line front end: lab run / lab sweep / lab list.

Exit codes: 0 all runs passed, 1 at least one acceptance check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    CLAIMS,
    ConfigError,
    experiment_ids,
    parse_config_file,
    run,
    sweep,
    _parse_value,
)


def _overrides(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = _parse_value(value.strip())
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="run the depth/SQ hardness experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="flat key = value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value")
    p_run.add_argument("--outdir", default="runs")

    p_sweep = sub.add_parser("sweep", help="run every config file in a directory")
    p_sweep.add_argument("dir")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--outdir", default="runs")

    sub.add_parser("list", help="print experiment ids and the claims they test")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for eid in experiment_ids():
                claim = CLAIMS[eid]
                print(f"{eid:24s} {claim['name']}: {claim['statement']}")
            return 0
        if args.command == "run":
            config = parse_config_file(args.config, _overrides(args.set))
            report = run(config, outdir=args.outdir)
            print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
            return 0 if report.passed else 1
        if args.command == "sweep":
            if args.workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {args.workers}")
            cfg_dir = Path(args.dir)
            if not cfg_dir.is_dir():
                raise ConfigError(f"{args.dir} is not a directory")
            files = sorted(p for p in cfg_dir.iterdir()
                           if p.suffix in {".cfg", ".txt", ".conf"})
            if not files:  # a sweep of nothing would pass vacuously
                raise ConfigError(f"{args.dir} holds no .cfg, .txt or .conf file")
            configs = [parse_config_file(p) for p in files]
            reports = sweep(configs, outdir=args.outdir, workers=args.workers)
            for c, r in zip(configs, reports):  # a FAIL names its first failed check
                print(f"{'pass' if r.passed else 'FAIL'}  {c.run_name()}  "
                      f"{r.first_failed}{r.error}")
            print(f"{sum(r.passed for r in reports)}/{len(reports)} passed; "
                  f"summary in {args.outdir}/summary.csv")
            return 0 if all(r.passed for r in reports) else 1
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
