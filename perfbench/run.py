"""depthlab benchmark: one workload, timed, checked, one JSON result line.

    python3 perfbench/run.py --workload gd-wave --seed 1 --seconds 15 --trace 0

Run from the root of a depthlab checkout.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run (see perfbench/README.md).  The workload itself runs in one
worker process; set-up time is the median over several fresh workers, from
process start to inputs ready.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gd-wave", "small-nets", "pwl-certify", "boolean-certify")
SETUP_SAMPLES = 7  # fresh processes timed to "ready", the main worker included
MARK = "@@perfbench "
# One BLAS thread: on a small shared machine a second OpenBLAS thread spins
# on the small matrices most workloads use, which doubles cpu_s and ties
# every timing to the load on the other core.  The machine record in each
# result reports the thread count the worker actually ran with.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def run_worker(args):
    """Start a worker; return (seconds until it reported ready, its result)."""
    ready, result = None, None
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV) as proc:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(MARK):])
            if event["event"] == "ready":
                ready = perf_counter() - t0
            elif event["event"] == "result":
                result = event
    if proc.returncode != 0 or ready is None:
        sys.exit(f"perfbench: worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "depthlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no depthlab sources under {ROOT / 'src'}")

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--tiny"] if args.tiny else []
    setups = []
    if not args.trace:
        setups = [run_worker(base + ["--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, result = run_worker(base + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups + [ready]), "s")
        failed = len(result["failures"])
        metrics["pass_frac"] = (1.0 - failed / result["attempted"], "frac")

    print("machine " + json.dumps(result["machine"]))
    print(f"workload {args.workload} seed {args.seed} digest {result['digest']} "
          f"rounds {len(result['rounds']['untraced'])} untraced, "
          f"{len(result['rounds']['traced'])} traced")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
