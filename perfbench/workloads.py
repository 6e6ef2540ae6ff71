"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

A round produces every certificate of the workload and ends when the last
one is written.  Registered experiments run through ``experiments.run``
with ``ExperimentConfig`` overrides; the populations no experiment
expresses (biased random nets, tent nets) call the layers directly.  All
depthlab calls go through module attributes so that a traced run sees them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from depthlab import constructions, experiments, gd, mlp, pwl, sq
from depthlab.experiments import ExperimentConfig, derive_seed

DENSE_TOL = 1e-9      # symbolic vs dense evaluation, relative to max(1, |f|)
GD_LOSS_TOL = 1e-12   # recorded final loss vs a fresh population loss
# The sign loss is a float dot product over up to 2^n + pieces cells, so it
# can sit an ulp below the exact bound: a biased 12x32 net with K = 0 gave
# 0.9999999999999999 against 1 with one BLAS thread and 1.0 with two.
LOSS_BOUND_TOL = 1e-12
GRAD_IDENTITY_TOL = 1e-9
SEP_N = 14            # square-wave frequency the random populations face


class Checks:
    """Counts attempted checks; a check fails if it raises or is false."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as e:  # a raising check is a failed check
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return
        if not ok:
            self.failures.append(name)


def _series(rundir: Path) -> list[dict]:
    with open(rundir / "series.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _dense_error(net, f) -> float:
    """max |symbolic - dense| over a midpoint grid plus breakpoints,
    relative to max(1, |dense|)."""
    grid = (np.arange(4096) + 0.5) / 4096
    breaks = f.breaks[:: max(1, f.breaks.size // 1024)]
    X = np.concatenate([grid, breaks])
    dense = mlp.forward_many(net, X[:, None])
    err = np.max(np.abs(pwl.evaluate(f, X) - dense))
    return float(err / max(1.0, float(np.max(np.abs(dense)))))


def _certify_net(net, n: int) -> dict:
    """The symbolic certificate the separation experiment writes, for one net."""
    f = pwl.from_mlp_1d(net)
    return {
        "f": f,
        "pieces": pwl.count_pieces(f),
        "crossings": pwl.sign_crossings(f),
        "loss": pwl.sign_hinge_loss_vs_fn(f, n),
        "n": n,
    }


def _check_certificate(checks: Checks, label: str, net, cert: dict) -> None:
    n, K = cert["n"], cert["crossings"]
    checks.check(f"{label} dense", lambda: _dense_error(net, cert["f"]) <= DENSE_TOL)
    checks.check(f"{label} piece bound",
                 lambda: cert["pieces"] <= pwl.piece_bound(net.depth, net.width))
    checks.check(f"{label} loss bound",
                 lambda: cert["loss"] >= (2 ** (n - 1) - K) / 2 ** (n - 1) - LOSS_BOUND_TOL)


def _biased_net(depth: int, width: int, seed: int):
    """Weights and biases both N(0, 1/fan_in), built through ``mlp.Mlp``."""
    rng = np.random.default_rng(seed)
    dims = [1] + [width] * (depth - 1) + [1]
    return mlp.Mlp([
        (rng.normal(0.0, 1.0 / np.sqrt(fi), size=(fo, fi)),
         rng.normal(0.0, 1.0 / np.sqrt(fi), size=fo))
        for fi, fo in zip(dims[:-1], dims[1:])
    ])


def _config(experiment: str, params: dict, seed: int) -> ExperimentConfig:
    """The experiment with the benchmark seed as its root seed, where it has one."""
    if "seed" in experiments.DEFAULTS[experiment]:
        params = {**params, "seed": seed}
    return ExperimentConfig(experiment, params)


def _spread(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


class Workload:
    """One workload.  Subclasses list their experiment runs and may add
    their own certificates, checks and captured calls."""

    capture: list = []  # (owner, attr) whose calls the checked round records

    def __init__(self, seed: int, tiny: bool, outdir: Path):
        self.tiny = tiny
        self.outdir = outdir
        self.configs = [_config(e, p, seed) for e, p in self.runs()]

    def runs(self) -> list:
        """(experiment id, ExperimentConfig overrides) pairs of one round."""
        return []

    def round(self) -> dict:
        reports = [experiments.run(c, self.outdir) for c in self.configs]
        own = self.own_certificates()
        records = {k: [{f: c[f] for f in ("pieces", "crossings", "loss")} for c in v]
                   for k, v in own.items()}
        with open(self.outdir / "records.json", "w") as fh:
            json.dump(records, fh, sort_keys=True)
        return {"reports": reports, "own": own}

    def own_certificates(self) -> dict:
        return {}

    def digest(self, out: dict) -> str:
        h = hashlib.blake2b(digest_size=16)
        for c in self.configs:
            for name in ("report.json", "series.csv"):
                path = self.outdir / c.run_name() / name
                if path.exists():
                    h.update(path.read_bytes())
        h.update((self.outdir / "records.json").read_bytes())
        return h.hexdigest()

    def claims(self, config: ExperimentConfig) -> bool:
        """Whether the run's pass flag is a claim the benchmark checks."""
        return True

    def check(self, out: dict, captured: dict, checks: Checks) -> None:
        for c, rep in zip(self.configs, out["reports"]):
            checks.check(f"{c.run_name()} error", lambda rep=rep: not rep.error)
            if self.claims(c):
                checks.check(f"{c.run_name()} pass flag", lambda rep=rep: rep.passed)
        for i, (args, traj) in enumerate(captured.get("gd_train", [])):
            checks.check(
                f"gd run {i} final loss",
                lambda args=args, traj=traj: abs(
                    float(traj.loss[-1])
                    - mlp.population_hinge_loss(traj.final_net, args["target"], args["dist"])
                ) <= GD_LOSS_TOL)

    def layer_records(self, out: dict) -> dict:
        """Per-layer figures read off the certificates, not off the clock."""
        return {}

    def probe(self) -> dict:
        return {}


class GdWave(Workload):
    """The C4 flatline shape at n = 12: depth 12, width 32, 2^16 grid points."""

    capture = [(gd, "gd_train")]

    def runs(self):
        if self.tiny:
            return [("gd-flatline", {"n": 8, "iters": 2})]
        return [("gd-flatline", {"n": 12, "iters": 4})]

    def check(self, out, captured, checks):
        super().check(out, captured, checks)
        self.gd_args = captured["gd_train"][0][0]

    def probe(self) -> dict:
        """forward_many next to population_hinge_grad on the initial net,
        target and grid of the checked GD run, so the gradient's cost
        beyond one forward pass shows."""
        net, target, dist = (self.gd_args[k] for k in ("net", "target", "dist"))
        X = dist.points_float()
        fwd, grad = [], []
        for _ in range(3):
            t0 = perf_counter()
            mlp.forward_many(net, X)
            t1 = perf_counter()
            mlp.population_hinge_grad(net, target, dist)
            t2 = perf_counter()
            fwd.append(t1 - t0)
            grad.append(t2 - t1)
        f, g = statistics.median(fwd), statistics.median(grad)
        return {"mlp.forward_many_s": f, "mlp.grad_minus_forward_s": g - f}


class SmallNets(Workload):
    """Many small mlp calls: gd-sanity, the small-n end of the decay sweep
    and the xavier audit."""

    capture = [(gd, "gd_train")]

    def runs(self):
        if self.tiny:
            return [("gd-sanity", {}), ("gd-flatline", {"n": 6, "iters": 3}),
                    ("xavier-audit", {"trials": 2})]
        return [("gd-sanity", {}), ("gd-flatline", {"n": 6, "iters": 100}),
                ("gd-flatline", {"n": 8, "iters": 25}), ("xavier-audit", {"trials": 25})]

    def claims(self, config):
        # Below n = 12 a gd-flatline run is a point of the decay sweep: the
        # loss may move by more than flat_tol there, and the acceptance
        # suite (C4) asserts flatness only at n = 12.
        return not (config.experiment == "gd-flatline" and config.params["n"] < 12)


class PwlCertify(Workload):
    """Symbolic certificates for zero-bias, biased, deep biased and tent nets."""

    capture = [(pwl, "from_mlp_1d")]

    def __init__(self, seed, tiny, outdir):
        super().__init__(seed, tiny, outdir)
        count, deep = (3, 1) if tiny else (20, 8)
        self.nets = {
            "biased": [_biased_net(4, 32, derive_seed(seed, f"biased{i}")) for i in range(count)],
            "deep_biased": [_biased_net(12, 32, derive_seed(seed, f"deep{i}"))
                            for i in range(deep)],
        }
        self.tent_orders = (4, 8) if tiny else (4, 8, 12, 16)

    def runs(self):
        return [("telgarsky-separation", {"n": SEP_N, "count": 3 if self.tiny else 20})]

    def own_certificates(self) -> dict:
        own = {k: [_certify_net(net, SEP_N) for net in nets] for k, nets in self.nets.items()}
        self.tents = [constructions.telgarsky_net(m) for m in self.tent_orders]
        own["tent"] = [_certify_net(net, max(self.tent_orders)) for net in self.tents]
        return own

    def _zero_bias(self, out) -> list[dict]:
        rows = _series(self.outdir / self.configs[0].run_name())
        return [{"pieces": int(r["pieces"]), "crossings": int(r["crossings"]),
                 "loss": float(r["loss"])} for r in rows]

    def check(self, out, captured, checks):
        super().check(out, captured, checks)
        rows = self._zero_bias(out)
        calls = captured["from_mlp_1d"]
        checks.check("zero-bias certificate count",
                     lambda: len(rows) == self.configs[0].params["count"] <= len(calls))
        for i, (row, (args, f)) in enumerate(zip(rows, calls)):
            _check_certificate(checks, f"zero_bias net {i}", args["net"],
                               {**row, "f": f, "n": SEP_N})
        nets = {**self.nets, "tent": self.tents}
        for pop, certs in out["own"].items():
            for i, (net, cert) in enumerate(zip(nets[pop], certs)):
                _check_certificate(checks, f"{pop} net {i}", net, cert)
        realized = out["own"]["tent"][-1]
        checks.check("deepest tent net realizes its wave", lambda: realized["loss"] == 0.0)

    def layer_records(self, out):
        pops = {"zero_bias": self._zero_bias(out), **out["own"]}
        rec = {}
        for pop, certs in pops.items():
            for key in ("pieces", "crossings"):
                for stat, v in _spread([c[key] for c in certs]).items():
                    rec[f"pwl.{pop}.{key}_{stat}"] = v
        return rec


class BooleanCertify(Workload):
    """SQ weak learning, the SQ query lower bound and kernel hardness."""

    capture = [(sq, "correlation_weak_learner")]

    def runs(self):
        if self.tiny:
            return [("sq-weak-learn", {"n": 8, "targets": 2}),
                    ("sq-parity-lower-bound", {"seeds": 1}),
                    ("kernel-hardness", {"n": 8, "features": 16, "iters": 5})]
        return [("sq-weak-learn", {"targets": 5}), ("sq-parity-lower-bound", {"seeds": 5}),
                ("kernel-hardness", {"iters": 50})]

    def check(self, out, captured, checks):
        super().check(out, captured, checks)
        for i, (args, got) in enumerate(captured["correlation_weak_learner"]):
            checks.check(f"sq target {i} recovered exactly",
                         lambda args=args, got=got: np.array_equal(
                             got.table, args["oracle"].target.table))
        for c, rep in zip(self.configs, out["reports"]):
            if c.experiment == "kernel-hardness":
                checks.check("kernel gradient identity",
                             lambda rep=rep: rep.metrics["grad_identity_max_err"]
                             <= GRAD_IDENTITY_TOL)

    def layer_records(self, out):
        c = next(c for c in self.configs if c.experiment == "sq-weak-learn")
        rows = _series(self.outdir / c.run_name())
        return {"sq.recovered_frac": sum(r["recovered"] == "True" for r in rows) / len(rows)}


WORKLOADS = {
    "gd-wave": GdWave,
    "small-nets": SmallNets,
    "pwl-certify": PwlCertify,
    "boolean-certify": BooleanCertify,
}
