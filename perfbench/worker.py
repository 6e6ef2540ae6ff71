"""One workload in one process: set up, run timed rounds, check, report.

Started by run.py.  It writes ``@@perfbench {json}`` lines to standard
output: ``ready`` once the inputs exist, then one ``result``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from depthlab import audit, boolfn, constructions, dists, experiments, gd, kernel, mlp, pwl, sq  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MARK = "@@perfbench "
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3  # per mode: untraced, and traced in a trace run


def emit(event: str, **fields) -> None:
    print(MARK + json.dumps({"event": event, **fields}), flush=True)


def _grad_attrs(a):
    """Support rows and computed flops of one population gradient:
    forward 2mk, weight gradient 2mk and backpropagation 2mk per layer
    of k = in*out weights, with no backpropagation into the input."""
    m = a["dist"].n_points
    sizes = [W.size for W, _ in a["net"].layers]
    return {"rows": m, "flop": m * (6 * sum(sizes) - 2 * sizes[0])}


def _solve_attrs(a):
    """Solver iterations and computed flops: two (m x N) by (N x d)
    products per iteration, and two more for the half-way and final losses."""
    m, N, d = a["dist"].n_points, a["psi"].n_features, len(a["family"])
    return {"iters": a["iters"], "flop": (4 * a["iters"] + 4) * m * N * d}


def layer_spans(tracer):
    """The public functions and methods a traced run wraps, by layer."""
    w = tracer.wrapper
    return [
        (experiments, "run", w("experiments.run")),
        (gd, "gd_train", w("gd.gd_train", lambda a: {"steps": a["cfg"].iters})),
        (mlp, "population_hinge_grad", w("mlp.population_hinge_grad", _grad_attrs)),
        (mlp.Mlp, "with_flat_params", w("mlp.with_flat_params")),
        (mlp, "forward", w("mlp.forward")),
        (mlp, "output_grad_params", w("mlp.output_grad_params")),
        (audit, "audit_l_standard", w("audit.audit_l_standard")),
        (dists, "uniform_cube", w("dists.uniform_cube")),
        (dists, "uniform_signs", w("dists.uniform_signs")),
        (dists, "induced_pair", w("dists.induced_pair")),
        (constructions.TelgarskyTarget, "__call__", w("constructions.target")),
        (constructions, "telgarsky_target", w("constructions.build")),
        (constructions, "telgarsky_net", w("constructions.build")),
        (pwl, "from_mlp_1d", w("pwl.from_mlp_1d")),
        (pwl, "sign_hinge_loss_vs_fn", w("pwl.sign_hinge_loss_vs_fn")),
        (pwl, "sign_crossings", w("pwl.sign_crossings")),
        (pwl, "count_pieces", w("pwl.count_pieces")),
        (boolfn, "parity_family", w("boolfn.parity_family")),
        (boolfn, "enumerate_signs", w("boolfn.enumerate_signs")),
        (sq.SqOracle, "query", w("sq.query")),
        (sq, "correlation_weak_learner", w("sq.correlation_weak_learner")),
        (sq, "adversarial_game", w("sq.adversarial_game")),
        (kernel, "min_hinge_family", w("kernel.solve", _solve_attrs)),
        (kernel, "verify_linear_hardness", w("kernel.verify_linear_hardness")),
        (kernel.FeatureMap, "__call__", w("kernel.feature_map")),
    ]


def layer_metrics(st: tracing.SpanStats) -> dict:
    """Per-layer metrics (value, unit) from the spans of the traced rounds."""
    grad = "mlp.population_hinge_grad"
    g50, gtail, gpct = tracing.p50_and_tail(st.durations(grad))
    prop = "pwl.from_mlp_1d"
    p50, ptail, ppct = tracing.p50_and_tail(st.durations(prop))
    q50, qtail, qpct = tracing.p50_and_tail(st.durations("sq.query"))
    grad_s, train_s = st.total(grad), st.total("gd.gd_train")
    solve_s, iters = st.total("kernel.solve"), st.attr("iters", "kernel.solve")
    queries, query_s = st.count("sq.query"), st.total("sq.query")
    return {
        "experiments.run_s": (st.total("experiments.run"), "s"),
        "experiments.self_s": (st.self_time("experiments.run"), "s"),
        "gd.steps": (st.attr("steps", "gd.gd_train"), "count"),
        "gd.train_s": (train_s, "s"),
        "gd.self_s": (st.self_time("gd.gd_train"), "s"),
        "gd.steps_per_s": (st.attr("steps", "gd.gd_train") / train_s if train_s else 0.0, "1/s"),
        "mlp.grad_calls": (st.count(grad), "count"),
        "mlp.grad_s": (grad_s, "s"),
        "mlp.grad_p50_ms": (1e3 * g50, "ms"),
        "mlp.grad_tail_ms": (1e3 * gtail, "ms"),
        "mlp.grad_tail_pct": (gpct, "%"),
        "mlp.grad_samples": (len(st.durations(grad)), "count"),
        "mlp.grad_rows": (st.attr("rows", grad), "count"),
        "mlp.grad_flop": (st.attr("flop", grad), "flop"),
        "mlp.grad_gflop_per_s": (st.attr("flop", grad) / grad_s / 1e9 if grad_s else 0.0,
                                 "GFLOP/s"),
        "mlp.rebuild_calls": (st.count("mlp.with_flat_params"), "count"),
        "mlp.rebuild_s": (st.total("mlp.with_flat_params"), "s"),
        "mlp.point_calls": (st.count("mlp.forward", "mlp.output_grad_params"), "count"),
        "mlp.point_s": (st.total("mlp.forward", "mlp.output_grad_params"), "s"),
        "audit.audit_s": (st.total("audit.audit_l_standard"), "s"),
        "audit.self_s": (st.self_time("audit.audit_l_standard"), "s"),
        "dists.build_calls": (st.count("dists.uniform_cube", "dists.uniform_signs",
                                       "dists.induced_pair"), "count"),
        "dists.build_s": (st.total("dists.uniform_cube", "dists.uniform_signs",
                                   "dists.induced_pair"), "s"),
        "constructions.target_s": (st.total("constructions.target"), "s"),
        "constructions.build_s": (st.total("constructions.build"), "s"),
        "pwl.propagate_calls": (st.count(prop), "count"),
        "pwl.propagate_s": (st.total(prop), "s"),
        "pwl.propagate_p50_ms": (1e3 * p50, "ms"),
        "pwl.propagate_tail_ms": (1e3 * ptail, "ms"),
        "pwl.propagate_tail_pct": (ppct, "%"),
        "pwl.propagate_samples": (len(st.durations(prop)), "count"),
        "pwl.integral_s": (st.total("pwl.sign_hinge_loss_vs_fn"), "s"),
        "pwl.crossings_s": (st.total("pwl.sign_crossings"), "s"),
        "pwl.count_s": (st.total("pwl.count_pieces"), "s"),
        "boolfn.family_s": (st.total("boolfn.parity_family"), "s"),
        "boolfn.enumerate_s": (st.total("boolfn.enumerate_signs"), "s"),
        "sq.queries": (queries, "count"),
        "sq.query_p50_us": (1e6 * q50, "us"),
        "sq.query_tail_us": (1e6 * qtail, "us"),
        "sq.query_tail_pct": (qpct, "%"),
        "sq.query_samples": (len(st.durations("sq.query")), "count"),
        "sq.queries_per_s": (queries / query_s if query_s else 0.0, "1/s"),
        "sq.learner_s": (st.total("sq.correlation_weak_learner"), "s"),
        "sq.game_s": (st.total("sq.adversarial_game"), "s"),
        "sq.games": (st.count("sq.adversarial_game"), "count"),
        "kernel.solves": (st.count("kernel.solve"), "count"),
        "kernel.solver_iters": (iters, "count"),
        "kernel.solve_s": (solve_s, "s"),
        "kernel.iter_ms": (1e3 * solve_s / iters if iters else 0.0, "ms"),
        "kernel.solve_flop": (st.attr("flop", "kernel.solve"), "flop"),
        "kernel.feature_s": (st.total("kernel.feature_map"), "s"),
        "kernel.verify_self_s": (st.self_time("kernel.verify_linear_hardness"), "s"),
    }


# Per-layer metrics that only some workloads produce; the others report 0.
RECORD_METRICS = {
    "mlp.forward_many_s": "s",
    "mlp.grad_minus_forward_s": "s",
    "sq.recovered_frac": "frac",
    **{f"pwl.{pop}.{key}_{stat}": "count"
       for pop in ("zero_bias", "biased", "deep_biased", "tent")
       for key in ("pieces", "crossings")
       for stat in ("min", "median", "max")},
}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    """What the timings rest on: cores, CPU, interpreter, numpy and BLAS."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


def timed_round(wl):
    c0, t0 = process_time(), perf_counter()
    out = wl.round()
    wall, cpu = perf_counter() - t0, process_time() - c0
    return out, wall, cpu


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    outdir = OUT / f"runs-{args.workload}-{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, outdir)
    emit("ready")
    if args.setup_only:
        return 0

    # The first round is the checked one: it records the calls the checks
    # need and is not timed.  Every later round must reproduce its digest.
    checks = workloads.Checks()
    captured = {attr: [] for _, attr in wl.capture}
    with tracing.patched([(o, a, tracing.recorder(captured[a])) for o, a in wl.capture]):
        first = wl.round()
    wl.check(first, captured, checks)
    del captured
    want = wl.digest(first)
    records = wl.layer_records(first)

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    cpus = []
    modes = (False, True) if args.trace else (False,)
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or any(len(walls[m]) < MIN_ROUNDS for m in modes):
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.run += 1
            with tracing.patched(layer_spans(tracer)):
                out, wall, cpu = timed_round(wl)
        else:
            out, wall, cpu = timed_round(wl)
            cpus.append(cpu)
        walls[traced].append(wall)
        got = wl.digest(out)
        checks.check(f"round {len(walls[False]) + len(walls[True])} digest",
                     lambda got=got: got == want)

    if args.trace:
        stats = tracing.SpanStats(tracer.spans, range(1, tracer.run + 1))
        metrics = layer_metrics(stats)
        extra = {**records, **wl.probe()}
        metrics.update({k: (extra.get(k, 0), u) for k, u in RECORD_METRICS.items()})
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]), "s")
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": machine(),
                       **tracer.dump()}, fh)
    else:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    emit("result", attempted=checks.attempted, failures=checks.failures,
         rounds={"untraced": walls[False], "traced": walls[True]}, digest=want,
         machine=machine(), metrics=metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
