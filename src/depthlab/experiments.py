"""Config-driven experiments reproducing the lab's headline claims.

Each experiment is a pure function of its parameter dict plus a root seed;
per-component seeds are derived by labeled hashing so reports are
byte-identical across reruns.  Wall-clock time goes to a separate meta
file, never into report.json.  ``run`` forms each pass flag from ``Check`` records.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import audit, boolfn, constructions, dists, gd, kernel, mlp, pwl, sq

__all__ = ["Check", "ExperimentConfig", "ExperimentReport", "ConfigError", "run", "sweep",
           "experiment_ids", "CLAIMS", "DEFAULTS", "derive_seed", "parse_config_file"]


class ConfigError(ValueError):
    """Unknown experiment id, unknown key, malformed value, or a value the
    experiment cannot run with: raised when the config is built."""


def derive_seed(root: int, label: str) -> int:
    """Stable per-component seed: hash of the root seed and a label."""
    h = hashlib.blake2b(f"{root}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") % (2**63)


CLAIMS = {
    "gd-flatline": {
        "name": "gd-flatline",
        "statement": "population gradient descent on a deep Gaussian-initialized net "
        "barely moves the hinge loss against the 2^n-band square wave, and the mean "
        "gradient norm decays geometrically in n",
    },
    "gd-sanity": {
        "name": "gd-sanity",
        "statement": "the same deep pipeline trained on the easy 4-band wave reaches "
        "loss below 0.5, so the flatline is a property of the target, not the optimizer",
    },
    "telgarsky-separation": {
        "name": "shallow-loss-lower-bound",
        "statement": "the sign of a depth-L width-k net has at most 2^(L-1) k^L pieces, "
        "so its hinge loss against the 2^n-band wave is at least (2^(n-1)-K)/2^(n-1) "
        "for K sign crossings, and at least 1 - 2^sqrt(n) (2k)^sqrt(n) / 2^n",
    },
    "sq-parity-lower-bound": {
        "name": "sq-query-lower-bound",
        "statement": "against a 2^n-member orthogonal parity family, any learner that "
        "asks at most d^(1/3)/8 queries at tolerance 1/d^(1/3) suffers hinge loss at "
        "least 1 - 2/sqrt(d), and each answer rules out at most 4 d^(2/3) members",
    },
    "sq-weak-learn": {
        "name": "sq-correlation-upper-bound",
        "statement": "with an honest low-noise oracle, one correlation query per family "
        "member recovers the exact parity target",
    },
    "kernel-hardness": {
        "name": "kernel-hardness",
        "statement": "bounded-norm predictors over N bounded features cannot beat loss "
        "1 - sqrt(2 sqrt(5) N) B / d^(1/12) on average over an almost-orthogonal family; "
        "at desk scale the bound clamps to 0 and the measured average stays near 1",
    },
    "f-family": {
        "name": "or-parity-family",
        "statement": "OR-parity functions are exactly realized by depth-3 nets, their "
        "pairwise correlations equal (1/2)^hamming, a 2^(n/12)-sized selector set has "
        "pairwise Hamming >= n/4, and rounding a depth-2 net onto a Delta grid embeds "
        "it in a bounded feature class within pointwise error R sqrt(k) Delta n",
    },
    "lipschitz-approx": {
        "name": "lipschitz-approximation",
        "statement": "a 3-stage net of width n^d * 2d built from soft cell indicators "
        "approximates any C-bounded L-Lipschitz function within L1 error "
        "(2C + L sqrt(d)) / n^d",
    },
    "xavier-audit": {
        "name": "init-lipschitz-audit",
        "statement": "for depth k, width m > k^2 nets with N(0, 1/fan_in) weights, the "
        "parameter-Lipschitz ratio near the init stays below 1.1 ||x|| for almost "
        "every draw within radius 1/k",
    },
}

DEFAULTS = {
    "gd-flatline": {
        "n": 12, "depth": 0, "width": 32, "eta": 0.1, "iters": 500,
        "grid": 0, "seed": 0, "flat_tol": 1e-3,
    },
    "gd-sanity": {
        "n": 2, "depth": 12, "width": 32, "eta": 0.1, "iters": 2000,
        "grid": 0, "seed": 0, "loss_target": 0.5,
    },
    "telgarsky-separation": {
        "n": 14, "depth": 0, "width": 32, "count": 100, "seed": 0,
    },
    "sq-parity-lower-bound": {
        "n": 12, "tau": 1.0 / 16.0, "budget": 2, "seeds": 20,
        "learners": "correlation,random-query,majority",
    },
    "sq-weak-learn": {
        "n": 12, "tau": 1e-3, "targets": 50, "seed": 0,
    },
    "kernel-hardness": {
        "n": 10, "features": 64, "feature_kind": "parity", "B": 10.0,
        "iters": 2000, "seed": 0, "threshold": 0.9,
    },
    "f-family": {
        "n_or": 6, "n_reduction": 8, "k_reduction": 4, "delta": 0.25,
        "n_zset": 48, "d_zset": 16, "seed": 0,
    },
    "lipschitz-approx": {
        "samples": 10**5, "seed": 0,
    },
    "xavier-audit": {
        "depth": 4, "width": 64, "d": 2, "trials": 100, "probes": 8,
        "seed": 0, "threshold": 0.95, "rho": 0.0,
    },
}


# lowest accepted values: an empty population would pass every per-member
# check vacuously, the Monte Carlo 3 sigma needs two samples, the layers
# refuse a negative step or norm bound, and a net or cube needs one input,
# unit and coordinate (depth = 0, grid = 0 and rho = 0 stand for defaults)
_LOWEST = {"count": 1, "seeds": 1, "targets": 1, "trials": 1, "probes": 1, "features": 1,
           "iters": 1, "samples": 2, "eta": 0.0, "B": 0.0, "rho": 0.0, "n": 1, "width": 1,
           "d": 1, "depth": 0, "grid": 0, "budget": 0}


def experiment_ids():
    return sorted(DEFAULTS)


def _check_values(e, p):
    """Refuse the values experiment ``e`` cannot run with, before it runs."""
    if e in ("gd-flatline", "gd-sanity", "telgarsky-separation") and p["n"] > pwl.MAX_WAVE_N:
        raise ConfigError(f"n = {p['n']} exceeds {pwl.MAX_WAVE_N}: the 2^n-band edges "
                          "of the wave stop being exact in float64")
    if e in ("sq-parity-lower-bound", "sq-weak-learn", "kernel-hardness") \
            and p["n"] > dists.MAX_ENUM_BITS:
        raise ConfigError(f"n = {p['n']} exceeds {dists.MAX_ENUM_BITS}, the cap on "
                          "enumerating {+-1}^n")
    if e in _DEPTH_AT_ZERO and _net_depth(e, p) < 2:
        raise ConfigError(f"net depth {_net_depth(e, p)} (from depth = {p['depth']}) "
                          "is below 2")
    if e in ("gd-flatline", "gd-sanity") and 0 < p["grid"] < 2 ** p["n"]:
        raise ConfigError(f"grid = {p['grid']} has fewer points than the 2^{p['n']} bands "
                          "of the wave")
    if e in ("gd-flatline", "gd-sanity") and _grid_points(p) > dists.MAX_GRID_POINTS:
        raise ConfigError(f"a grid of {_grid_points(p)} points (grid = {p['grid']}, "
                          f"n = {p['n']}) exceeds dists.MAX_GRID_POINTS = "
                          f"{dists.MAX_GRID_POINTS}")
    if e == "sq-parity-lower-bound":
        bad = set(_learners(p)) - set(_LEARNER_FACTORIES)
        if bad or not _learners(p):
            raise ConfigError(f"learners = {p['learners']!r} must name learners from "
                              f"{sorted(_LEARNER_FACTORIES)}; unknown: {sorted(bad)}")
        tau_min = (2 ** p["n"]) ** (-1.0 / 3.0)
        # the adversary's own slack: 4096^(-1/3) rounds to just above 1/16
        if p["tau"] < tau_min - 1e-12:
            raise ConfigError(f"tau = {p['tau']} lies below d^(-1/3) = {tau_min:.6g} "
                              f"for the 2^{p['n']} parities")
    if e == "kernel-hardness" and p["feature_kind"] not in ("parity", "iid"):
        raise ConfigError(f"unknown feature_kind {p['feature_kind']!r}")
    if e == "kernel-hardness" and p["feature_kind"] == "parity" and p["features"] > 2 ** p["n"]:
        raise ConfigError(f"features = {p['features']} exceeds the {2 ** p['n']} parities "
                          f"at n = {p['n']}")
    if e == "kernel-hardness":
        # the live targets: the parity features themselves, or every parity
        # for iid ones, whose feature table is as large again
        live = p["features"] if p["feature_kind"] == "parity" else 2 ** p["n"]
        if 2 ** p["n"] * max(live, p["features"]) > kernel.MAX_LABEL_ENTRIES:
            raise ConfigError(f"{live} live targets or {p['features']} features on "
                              f"2^{p['n']} points exceed kernel.MAX_LABEL_ENTRIES = "
                              f"{kernel.MAX_LABEL_ENTRIES} table entries")
    if e == "f-family":
        # sign enumeration of 2n coordinates stops at 24, the 8 pair picks need
        # 2^n_or >= 8, and hoeffding_zset admits d up to sq.zset_capacity
        for key, lo, hi in (("n_or", 3, 12), ("n_reduction", 1, 12),
                            ("k_reduction", 1, math.inf),
                            ("d_zset", 1, sq.zset_capacity(p["n_zset"]))):
            if not lo <= p[key] <= hi:
                raise ConfigError(f"{key} = {p[key]} lies outside {lo}..{hi:g}")
        if not 0 < p["delta"] < 1:
            raise ConfigError(f"delta = {p['delta']} lies outside (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in DEFAULTS:
            raise ConfigError(f"unknown experiment id {self.experiment!r}; "
                              f"known: {', '.join(experiment_ids())}")
        defaults = DEFAULTS[self.experiment]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown keys for {self.experiment}: {sorted(unknown)}")
        merged = dict(defaults)
        for k, v in self.params.items():
            want = type(defaults[k])
            try:
                merged[k] = want(v)
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"bad value for {k}: {v!r}") from e
            # int(20.5) == 20, int(True) == 1 and float(True) == 1.0: refuse
            # rather than coerce
            if want is int and (isinstance(v, bool) or
                                isinstance(v, float) and merged[k] != v):
                raise ConfigError(f"{k} must be an integer, got {v!r}")
            if want is float and (isinstance(v, bool) or not math.isfinite(merged[k])):
                raise ConfigError(f"{k} must be a finite number, got {v!r}")
        low = sorted(k for k in _LOWEST.keys() & merged.keys() if merged[k] < _LOWEST[k])
        if low:
            raise ConfigError("values below their minimum: "
                              + ", ".join(f"{k} = {merged[k]} < {_LOWEST[k]}" for k in low))
        if "tau" in merged and not 0.0 < merged["tau"] < 1.0:
            raise ConfigError(f"tau = {merged['tau']} lies outside (0, 1)")
        _check_values(self.experiment, merged)
        object.__setattr__(self, "params", merged)

    def run_name(self) -> str:
        blob = json.dumps({"experiment": self.experiment, "params": self.params},
                          sort_keys=True)
        return f"{self.experiment}-{hashlib.blake2b(blob.encode(), digest_size=4).hexdigest()}"


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    claim: dict
    metrics: dict
    thresholds: dict
    passed: bool
    artifacts: list
    error: str = ""
    checks: list = field(default_factory=list)
    first_failed: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Check:
    """``value sense bound`` (<, <=, >= or ==); a NaN value fails.  ``margin`` is the slack."""

    name: str
    value: float
    bound: float
    sense: str

    @property
    def ok(self) -> bool:
        v, b = self.value, self.bound
        return bool({"<": v < b, "<=": v <= b, ">=": v >= b, "==": v == b}[self.sense])

    @property
    def margin(self):
        if self.sense != "==":
            return self.value - self.bound if self.sense == ">=" else self.bound - self.value


# ---------------------------------------------------------------------------
# experiment bodies: params -> (metrics, checks, series rows); a check is
# named after the value it reads, with any tolerance inside its bound.  A
# body with random inputs draws them from its seed and hands them to a
# _certify_* step; the acceptance suite calls the same step on its pinned draws.

# the net depth that depth = 0 stands for in each experiment with a net
_DEPTH_AT_ZERO = {"gd-flatline": lambda p: p["n"], "gd-sanity": lambda p: 0,
                  "telgarsky-separation": lambda p: math.ceil(math.sqrt(p["n"])),
                  "xavier-audit": lambda p: 0}


def _net_depth(e, p):
    """Experiment ``e``'s net depth: the configured one, else its derived one."""
    return p["depth"] or _DEPTH_AT_ZERO[e](p)


def _init_net(e, p):
    return mlp.xavier_init(_net_depth(e, p), p["width"], 1,
                           seed=derive_seed(p["seed"], "init"))


def _grid_points(p):
    """The GD experiments' midpoint grid size: ``grid``, or 2^(n+4) at grid = 0."""
    return p["grid"] if p["grid"] > 0 else 2 ** (p["n"] + 4)


def _gd_on_wave(p, net):
    """Population GD from ``net`` against the 2^n-band wave on its midpoint
    grid; returns the trajectory, the metrics both GD experiments report,
    and the per-step series."""
    n = p["n"]
    grid = _grid_points(p)
    traj = gd.gd_train(net, constructions.telgarsky_target(n),
                       dists.uniform_cube(grid=grid),
                       gd.GdConfig(eta=p["eta"], iters=p["iters"]))
    metrics = {
        "n": n, "depth": net.depth, "grid_points": grid,
        "loss_start_hinge": float(traj.loss[0]),
        "loss_end_hinge": float(traj.loss[-1]),
    }
    series = [
        {"iter": int(t), "loss": float(l), "grad_norm": float(g), "param_dist": float(d)}
        for t, l, g, d in zip(traj.iters, traj.loss, traj.grad_norm, traj.param_dist)
    ]
    return traj, metrics, series


def _certify_gd_flatline(p, net):
    traj, metrics, series = _gd_on_wave(p, net)
    change = abs(metrics["loss_start_hinge"] - metrics["loss_end_hinge"])
    metrics.update({
        "abs_loss_change_hinge": change,
        "mean_grad_norm_l2": float(traj.grad_norm.mean()),
        "log_mean_grad_norm": float(np.log(traj.grad_norm.mean())),
        "final_param_dist_l2": float(traj.param_dist[-1]),
    })
    return metrics, [Check("abs_loss_change_hinge", change, p["flat_tol"], "<=")], series


def _exp_gd_flatline(p):
    return _certify_gd_flatline(p, _init_net("gd-flatline", p))


def _certify_gd_sanity(p, net):
    _, metrics, series = _gd_on_wave(p, net)
    loss = metrics["loss_end_hinge"]
    return metrics, [Check("loss_end_hinge", loss, p["loss_target"], "<")], series


def _exp_gd_sanity(p):
    return _certify_gd_sanity(p, _init_net("gd-sanity", p))


def _certify_separation(p, nets):
    """Certify the loss floor of each net (all of one depth and width)."""
    n = p["n"]
    depth, width = nets[0].depth, nets[0].width
    bound_width = max(0.0, 1.0 - 2 ** math.sqrt(n) * (2 * width) ** math.sqrt(n) / 2**n)
    cap, series = pwl.piece_bound(depth, width), []
    for net in nets:
        f = pwl.from_mlp_1d(net)
        pieces = pwl.count_pieces(f)
        K = pwl.sign_crossings(f)
        loss = pwl.sign_hinge_loss_vs_fn(f, n)
        lower = (2 ** (n - 1) - K) / 2 ** (n - 1)
        series.append({
            "depth": depth, "width": width, "pieces": pieces,
            "bound": cap, "crossings": K,
            "loss": loss, "lower_bound": lower,
        })
    metrics = {
        "n": n, "depth": depth, "width": width, "nets": len(nets),
        "min_sign_hinge_loss": float(min(r["loss"] for r in series)),
        "width_based_lower_bound": bound_width,
        "width_bound_vacuous": bound_width == 0.0,
    }
    # loss >= max(lower_bound, width bound) for every net: IEEE subtraction keeps the sign
    excess = float(np.min([r["loss"] - max(r["lower_bound"], bound_width) for r in series]))
    return metrics, [Check("min_loss_minus_floor", excess, 0.0, ">="),
                     Check("max_pieces", max(r["pieces"] for r in series), cap, "<=")], series


def _exp_telgarsky_separation(p):
    depth = _net_depth("telgarsky-separation", p)
    return _certify_separation(p, [
        mlp.xavier_init(depth, p["width"], 1, seed=derive_seed(p["seed"], f"net{i}"))
        for i in range(p["count"])])


_LEARNER_FACTORIES = {
    "correlation": lambda family, seed: sq.make_correlation_learner(family),
    "random-query": lambda family, seed: sq.make_random_query_learner(family, seed),
    "majority": lambda family, seed: sq.make_majority_learner(),
}


def _learners(p):
    return [s.strip() for s in p["learners"].split(",") if s.strip()]


def _certify_sq_games(p, learner_seeds):
    """One budgeted adversarial game per seed of each (learner, seeds) entry."""
    n = p["n"]
    family = boolfn.parity_family(n)
    d = len(family)
    floor_loss = 1.0 - 2.0 / math.sqrt(d)
    count_cap = 4.0 * d ** (2.0 / 3.0)
    series = []
    for name, seeds in learner_seeds:
        for s, seed in enumerate(seeds):
            learner = _LEARNER_FACTORIES[name](family, seed)
            res = sq.adversarial_game(family, learner, p["budget"], p["tau"])
            worst_count = max(res.inconsistent_counts, default=0)
            series.append({
                "learner": name, "seed": s, "loss": res.loss,
                "chosen_index": res.chosen_index,
                "max_inconsistent_per_query": worst_count,
            })
    metrics = {
        "n": n, "family_size": d, "budget": p["budget"], "tau": p["tau"],
        "games": len(series),
        "min_loss_hinge": float(np.min([r["loss"] for r in series])),  # np.min keeps a NaN
        "loss_floor": floor_loss,
        "inconsistent_count_cap": count_cap,
        "max_inconsistent_per_query": max(r["max_inconsistent_per_query"] for r in series),
    }
    return metrics, [Check(k, metrics[k], bound, sense) for k, bound, sense in [
        ("min_loss_hinge", floor_loss, ">="),
        ("max_inconsistent_per_query", count_cap, "<=")]], series


def _exp_sq_parity_lower_bound(p):
    return _certify_sq_games(p, [
        (name, [derive_seed(s, f"game-{name}") for s in range(p["seeds"])])
        for name in _learners(p)])


def _certify_weak_learn(p, draws):
    """Recover each (target index, oracle seed) draw's target from an honest oracle,
    whose answer for the returned member (the learner's pick) must lie within tau
    of that member's direct row dot with the target, which no family product sets."""
    n = p["n"]
    family = boolfn.parity_family(n)
    gap = 0.0
    series = []
    for t, (j, oracle_seed) in enumerate(draws):
        target = boolfn.BooleanFn(n, family[j])
        oracle = sq.HonestNoisyOracle(target, tau=p["tau"], seed=oracle_seed)
        got = sq.correlation_weak_learner(oracle, family)
        y, h = target.table.astype(np.float64), got.table
        loss = float(np.add.reduce(np.maximum(0.0, 1.0 - y * h)) / len(y))
        recovered = bool(np.array_equal(got.table, target.table))
        answer = oracle.log[int(np.argmax(np.abs(oracle.log)))]
        gap = np.maximum(gap, abs(answer - boolfn.inner_product(got.table, target.table)))
        series.append({"trial": t, "target_index": j, "recovered": recovered, "loss": loss})
    checks = [Check("recovered_targets", sum(r["recovered"] for r in series), len(draws), "=="),
              Check("max_loss_hinge", float(np.max([r["loss"] for r in series])), 0.0, "=="),
              Check("max_answer_gap", gap, p["tau"], "<=")]
    metrics = {"n": n, "tau": p["tau"], "targets": len(draws),
               "all_recovered": checks[0].ok and checks[1].ok,
               **{c.name: c.value for c in checks[1:]}}
    return metrics, checks, series


def _exp_sq_weak_learn(p):
    rng = np.random.default_rng(derive_seed(p["seed"], "targets"))
    return _certify_weak_learn(p, [
        (int(rng.integers(2 ** p["n"])), derive_seed(p["seed"], f"oracle{t}"))
        for t in range(p["targets"])])


def _exp_kernel_hardness(p):
    n = p["n"]
    dist = dists.uniform_signs(n)
    family = boolfn.parity_family(n)
    d = len(family)
    rng = np.random.default_rng(derive_seed(p["seed"], "features"))
    if p["feature_kind"] == "parity":
        rows = family[np.sort(rng.choice(d, size=p["features"], replace=False))]
    else:
        iid = np.random.default_rng(derive_seed(p["seed"], "iid-features"))
        rows = iid.integers(0, 2, size=(p["features"], d)) * 2.0 - 1.0
    psi = kernel.FeatureMap(np.ascontiguousarray(rows.T, dtype=np.float64))
    report = kernel.verify_linear_hardness(psi, p["B"], family, dist,
                                           iters=p["iters"],
                                           seed=derive_seed(p["seed"], "fd"))
    series = [{"target_id": j, "loss": float(l), "lower_bound": float(lo),
               "bound": report.bound, "slack": float(l) - report.bound}
              for j, (l, lo) in enumerate(zip(report.losses, report.lower_bounds))]
    metrics = {
        "n": n, "family_size": d, "features": p["features"],
        "feature_kind": p["feature_kind"], "B": p["B"],
        "solver_iters": p["iters"],
        "average_loss_hinge": report.average_loss,
        "average_lower_bound_hinge": report.average_lower_bound,
        "max_bracket_gap": report.max_bracket_gap,
        "fixed_point_targets": report.fixed_point_targets,
        "formula_bound": report.bound,
        "bound_vacuous": report.bound_vacuous,
        "bound_variants": report.bound_variants,
        "grad_identity_max_err": report.grad_identity_max_err,
        "parseval_rel_err": report.parseval_rel_err,
    }
    floor, excess = p["threshold"], float(np.max(report.lower_bounds - report.losses))
    return metrics, [
        Check("average_loss_hinge", report.average_loss, floor, ">="),
        Check("average_lower_bound_hinge", report.average_lower_bound, floor, ">="),
        Check("max_lower_bound_minus_loss", excess, 1e-12, "<="),  # weak duality, up to roundoff
        Check("grad_identity_max_err", report.grad_identity_max_err, 1e-9, "<="),
        Check("parseval_rel_err", report.parseval_rel_err, 1e-12, "<="),  # exact at the defaults
    ], series


def _depth2_net(rng, n, k):
    """A random depth-2 net with k hidden units on input pairs in {+-1}^(2n)."""
    W1 = rng.normal(0.0, 0.3, size=(k, 2 * n))
    b1 = rng.normal(0.0, 0.3, size=k)
    W2 = rng.normal(0.0, 0.3, size=(1, k))
    return mlp.Mlp([(W1, b1), (W2, np.zeros(1))])


def _f_family_draws(p):
    """f-family's seeded draws: the OR-parity selector z', the closed-form
    pair picks as (n, pick) entries whose halves are crossed, Z and the net."""
    rng = lambda label: np.random.default_rng(derive_seed(p["seed"], label))
    return {
        "z_prime": (rng("zprime").integers(0, 2, p["n_or"]) * 2 - 1).astype(np.int8),
        "pairs": [(p["n_or"], rng("pairs").choice(2 ** p["n_or"], size=8, replace=False))],
        "Z": sq.hoeffding_zset(p["n_zset"], p["d_zset"], seed=derive_seed(p["seed"], "zset")),
        "net2": _depth2_net(rng("depth2"), p["n_reduction"], p["k_reduction"]),
    }


def _certify_f_family(p, z_prime, pairs, Z, net2):
    # exact depth-3 realization on the full pair cube
    n_or = z_prime.size
    net = constructions.or_parity_net(z_prime, n_or)
    U = boolfn.enumerate_signs(2 * n_or).astype(np.float64)
    or_err = np.max(np.abs(mlp.forward_many(net, U) - boolfn.or_parity_fn(z_prime, n_or)))
    # closed-form correlations vs enumeration
    closed_err = 0.0
    for m, pick in pairs:
        zs = boolfn.enumerate_signs(m)
        half = len(pick) // 2
        G = sq.f_family_gram(zs[pick])
        for a, i in enumerate(pick[:half]):
            for b, j in enumerate(pick[half:], half):
                ip = abs(boolfn.inner_product(boolfn.or_parity_fn(zs[i], m),
                                              boolfn.or_parity_fn(zs[j], m)))
                closed_err = np.maximum(closed_err, abs(ip - G[a, b]))
    # selector set with pairwise Hamming >= n/4, certified via the closed form
    hamming = sq.min_hamming(Z)
    cert = sq.certify_from_gram(sq.f_family_gram(Z))
    # depth-2 rounding reduction on the full 4^n enumeration
    n_red = p["n_reduction"]
    red = kernel.depth2_to_kernel(net2, p["delta"], kernel.depth2_radius(net2, n_red), n_red)
    Up = boolfn.enumerate_signs(2 * n_red).astype(np.float64)
    g = mlp.forward_many(net2, Up)
    ghat = mlp.forward_many(red.rounded_net, Up)
    rounding_err = float(np.max(np.abs(g - ghat)))
    Psi = red.feature_map.table
    ident_err = 0.0
    n_x = 2**n_red
    for zi, u in enumerate(red.coefficients):
        rows = np.arange(n_x) * n_x + zi
        ident_err = np.maximum(ident_err, np.max(np.abs(Psi @ u - ghat[rows])))
    checks = [
        Check("or_net_max_err", float(or_err), 0.0, "=="),  # exact on the 4^n_or pairs
        Check("closed_form_max_err", float(closed_err), 0.0, "=="),
        Check("zset_min_hamming", hamming, p["n_zset"] / 4.0, ">="),
        Check("zset_max_abs_corr", cert.max_abs_inner, 1.0 / cert.size, "<"),  # cert.passed
        Check("rounding_error", rounding_err, red.rounding_bound, "<="),
        Check("identity_max_err", ident_err, 1e-9, "<="),
    ]
    metrics = {**{c.name: c.value for c in checks[2:]}, "rounding_bound": red.rounding_bound,
               "reduction_features": red.feature_map.n_features}
    return metrics, checks, [asdict(c) for c in checks]


def _exp_f_family(p):
    return _certify_f_family(p, **_f_family_draws(p))


_LIPSCHITZ_CASES = [
    ("linear", lambda X: X[:, 0], 1.0, 1.0, 4, 1),
    ("sin6x", lambda X: np.sin(6.0 * X[:, 0]), 6.0, 1.0, 8, 1),
    ("x1x2", lambda X: X[:, 0] * X[:, 1], 2.0, 1.0, 4, 2),
]


def _certify_lipschitz(p, rng):
    """Monte Carlo L1 error of each case's net, sampling from ``rng``."""
    checks, series = [], []
    for name, h, L, C, n, d in _LIPSCHITZ_CASES:
        net = constructions.lipschitz_approx_net(h, L, C, n, d)
        S = rng.random((p["samples"], d))
        errs = np.abs(mlp.forward_many(net, S) - h(S))
        est = float(errs.mean())
        sigma = float(errs.std(ddof=1) / np.sqrt(len(errs)))
        bound = (2 * C + L * np.sqrt(d)) / n**d
        checks.append(Check(f"{name}_l1_error", est, bound + 3 * sigma, "<="))
        series.append({"case": name, "L": L, "C": C, "n": n, "d": d,
                       "l1_error": est, "mc_3sigma": 3 * sigma, "bound": bound,
                       "width": net.width, "ok": int(checks[-1].ok)})
    metrics = {"cases": len(series),
               **{f"{r['case']}_l1_error": r["l1_error"] for r in series},
               **{f"{r['case']}_bound": r["bound"] for r in series}}
    return metrics, checks, series


def _exp_lipschitz_approx(p):
    return _certify_lipschitz(p, np.random.default_rng(derive_seed(p["seed"], "mc")))


def _exp_xavier_audit(p):
    depth = _net_depth("xavier-audit", p)
    rho = p["rho"] if p["rho"] > 0 else 1.0 / depth
    factory = lambda s: mlp.xavier_init(depth, p["width"], p["d"], seed=s)
    rep = audit.audit_l_standard(factory, rho=rho, trials=p["trials"],
                                 probe_count=p["probes"],
                                 seed=derive_seed(p["seed"], "audit"))
    metrics = {
        "depth": p["depth"], "width": p["width"], "d": p["d"], "rho": rho,
        "trials": p["trials"],
        "pass_fraction": rep.pass_fraction,
        "lhat_theta": rep.lhat_theta,
        "lhat_x": rep.lhat_x,
        "lhat_sup": rep.lhat_sup,
        "slack": rep.slack,
        "grad_gap": rep.grad_gap,
    }
    series = [{"metric": k, "value": v} for k, v in metrics.items()]
    # grad_gap: the smallest rung's ratio against the gradient's slope, O(2^-20)
    # apart on working code (at most 2.9e-8 over 40 default seeds)
    return metrics, [Check("pass_fraction", rep.pass_fraction, p["threshold"], ">="),
                     Check("grad_gap", rep.grad_gap, 1e-6, "<=")], series


_BODIES = {
    "gd-flatline": _exp_gd_flatline,
    "gd-sanity": _exp_gd_sanity,
    "telgarsky-separation": _exp_telgarsky_separation,
    "sq-parity-lower-bound": _exp_sq_parity_lower_bound,
    "sq-weak-learn": _exp_sq_weak_learn,
    "kernel-hardness": _exp_kernel_hardness,
    "f-family": _exp_f_family,
    "lipschitz-approx": _exp_lipschitz_approx,
    "xavier-audit": _exp_xavier_audit,
}


def _jsonable(v):
    """Coerce numpy scalars/arrays so reports serialize cleanly."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    return v


def _write_series(path: Path, rows):
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)


def run(config: ExperimentConfig, outdir="runs") -> ExperimentReport:
    """Execute one experiment, writing report.json and series.csv.

    report.json is byte-identical across reruns of the same config; the
    wall-clock time lives in meta.json, outside the determinism contract.
    """
    t0 = time.time()
    try:
        metrics, checks, series = _BODIES[config.experiment](config.params)
        error = ""
    except Exception as e:  # failed run still produces a report
        metrics, checks, series = {}, [], []
        error = f"{type(e).__name__}: {e}"
    rundir = Path(outdir) / config.run_name()
    rundir.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(
        experiment=config.experiment,
        config=dict(config.params),
        claim=CLAIMS[config.experiment],
        metrics=_jsonable(metrics),
        thresholds=_jsonable({c.name: c.bound for c in checks}),
        passed=bool(checks) and all(c.ok for c in checks),
        artifacts=["report.json", "series.csv"] if series else ["report.json"],
        error=error,
        checks=_jsonable([{**asdict(c), "ok": c.ok, "margin": c.margin} for c in checks]),
        first_failed=next((c.name for c in checks if not c.ok), ""),
    )
    _write_series(rundir / "series.csv", series)
    with open(rundir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
    with open(rundir / "meta.json", "w") as fh:
        json.dump({"wall_clock_seconds": time.time() - t0}, fh)
    return report


def _run_for_pool(args):
    config, outdir = args
    try:
        return run(config, outdir)
    except Exception as e:
        return ExperimentReport(config.experiment, dict(config.params),
                                CLAIMS.get(config.experiment, {}), {}, {}, False,
                                [], error=f"{type(e).__name__}: {e}")


def _decay_fit(points):
    """Least-squares line through (n, log mean grad norm) points, with R^2."""
    ns = np.array([n for n, _ in points], dtype=np.float64)
    ys = np.array([y for _, y in points])
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0, "points": len(points)}


def sweep(configs, outdir="runs", workers: int = 1):
    """Run many configs; one failure never aborts the rest.

    Writes summary.csv (one row per run) and summary.json; when several
    gd-flatline runs with distinct n are present, the summary includes the
    fitted slope of log mean gradient norm against n.
    """
    configs = list(configs)
    if workers > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run skips this import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_for_pool, [(c, outdir) for c in configs]))
    else:
        reports = [_run_for_pool((c, outdir)) for c in configs]
    outpath = Path(outdir)
    outpath.mkdir(parents=True, exist_ok=True)
    rows = []
    for c, r in zip(configs, reports):
        rows.append({
            "experiment": r.experiment,
            "run": c.run_name(),
            "passed": int(r.passed),
            "error": r.error,
            "params": json.dumps(r.config, sort_keys=True),
            "metrics": json.dumps(r.metrics, sort_keys=True),
        })
    with open(outpath / "summary.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["experiment", "run", "passed", "error",
                                           "params", "metrics"])
        w.writeheader()
        w.writerows(rows)
    summary = {"runs": len(reports), "passed": sum(r.passed for r in reports)}
    flat = [(r.metrics["n"], r.metrics["log_mean_grad_norm"]) for r in reports
            if r.experiment == "gd-flatline" and "log_mean_grad_norm" in r.metrics]
    if len({n for n, _ in flat}) >= 2:
        summary["grad_norm_decay"] = _decay_fit(flat)
    with open(outpath / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return reports


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    """Flat key = value lines; '#' starts a comment; 'experiment' is required.

    ``overrides`` (key -> value) replace the file's values before the
    config is built and checked, so they can repair a refused value.
    """
    params = {}
    experiment = None
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "experiment":
            experiment = value
        else:
            params[key] = _parse_value(value)
    if experiment is None:
        raise ConfigError("config file must set 'experiment'")
    return ExperimentConfig(experiment, {**params, **(overrides or {})})


def _parse_value(s: str):
    try:
        return json.loads(s)
    except json.JSONDecodeError:
        return s
