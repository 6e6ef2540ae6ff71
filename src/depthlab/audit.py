"""Empirical audit of parameter/input Lipschitz behaviour near an init.

For sampled parameter points inside a ball around each drawn init and
sampled inputs in [0,1]^d, the audit measures

  * |g_theta(x) - g_theta'(x)| / ||theta - theta'||       (parameter side)
  * |grad_i(x) - grad_i(x')| / ||x - x'|| per coordinate  (input side)
  * sup_x |grad_i(x)|                                     (sup bound)

and reports the fraction of draws whose parameter-side ratios all stay
within 1.1 * ||x|| (times a slack factor).  Probe radii form a dyadic
ladder of absolute radii capped at rho, so enlarging rho probes a strict
superset and reported ratios are monotone in rho.

A probe's pair theta = theta0 + r s0 d0, theta' = theta0 + r s1 d1 lies
on two rays from theta0, one per unit direction d, with scales s in
[0, 1) and r on the ladder.  Every rung of both rays is evaluated in one
pass per layer along the rays (``mlp._forward_rays``), with no parameter
vector per rung and no net built per rung, and ||theta - theta'|| is
r ||s0 d0 - s1 d1||, one norm per probe.  As a cross-check, the ratio on
the smallest rung must match the directional derivative
|<grad_theta g_theta0(x), u>| along the unit vector u from theta' to
theta, taken by backprop, up to O(radius); the report carries the
largest gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import _forward_rays, l2_norm, output_grad_params

__all__ = ["LStandardReport", "audit_l_standard"]

_LADDER_FLOOR = 2.0**-20
_SLACK = 1.05  # tolerance factor on the 1.1 ||x|| ratio bound


@dataclass(frozen=True)
class LStandardReport:
    lhat_theta: float     # max parameter-Lipschitz ratio observed
    lhat_x: float         # max per-coordinate gradient ratio in x
    lhat_sup: float       # max gradient coordinate magnitude
    pass_fraction: float  # draws with all ratios <= 1.1 * ||x|| * slack
    slack: float
    grad_gap: float       # max |smallest-rung ratio - |<grad g_theta0(x), u>||

    def __post_init__(self):
        if min(self.lhat_theta, self.lhat_x, self.lhat_sup, self.grad_gap) < 0:
            raise ValueError("estimates must be nonnegative")
        if not 0.0 <= self.pass_fraction <= 1.0:
            raise ValueError("pass fraction must lie in [0,1]")


def _probe_radii(rho: float) -> np.ndarray:
    """Absolute dyadic ladder below rho, plus rho itself.

    Using absolute rungs makes the probe set for a larger rho a superset
    of the set for a smaller one.
    """
    rungs = []
    r = 1.0
    while r >= _LADDER_FLOOR:
        if r <= rho:
            rungs.append(r)
        r /= 2.0
    if rho not in rungs:
        rungs.insert(0, rho)
    return np.array(sorted(rungs, reverse=True))


def _probe_ladder(net, x, dirs: np.ndarray, scales: np.ndarray, radii: np.ndarray):
    """One probe's parameter-side ratios |g_theta(x) - g_theta'(x)| /
    ||theta - theta'|| on every rung r of ``radii``, theta = theta0 + r s0 d0
    and theta' = theta0 + r s1 d1 for the rows d of ``dirs`` and the
    ``scales`` s, and the slope of g at theta0 along the unit vector from
    theta' to theta, by backprop: (ratios, slope).  theta - theta' is
    r u_step on every rung, so its norm is r ||u_step||."""
    out = _forward_rays(net, x, dirs, scales[:, None] * radii)
    u_step = scales[0] * dirs[0] - scales[1] * dirs[1]
    u_norm = l2_norm(u_step)
    if not u_norm:
        raise ValueError("probe points coincide")
    ratios = np.abs(out[0] - out[1]) / (radii * u_norm)
    slope = abs(np.add.reduce(output_grad_params(net, x) * u_step)) / u_norm
    return ratios, slope


def audit_l_standard(
    net_factory,
    rho: float,
    trials: int,
    probe_count: int,
    seed: int,
) -> LStandardReport:
    """Sample Xavier-style draws from ``net_factory(seed)`` and probe ratios.

    ``net_factory`` maps an integer seed to an Mlp.  Per draw,
    ``probe_count`` direction pairs are laid out on every rung of the
    dyadic radius ladder, with inputs sampled uniformly in [0,1]^d.  A
    draw passes when every parameter-side ratio is at most
    1.1 * ||x|| * 1.05 at its probe input.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    rng = np.random.default_rng(seed)
    radii = _probe_radii(rho)
    max_theta_ratio = 0.0
    max_x_ratio = 0.0
    max_sup = 0.0
    grad_gap = 0.0
    passed = 0
    dirs = np.empty((probe_count, 2, 0))
    for trial in range(trials):
        net = net_factory(int(rng.integers(2**63)))
        theta0 = net.flat_params()
        d = net.in_dim
        # directions are drawn once per trial, into one array that the
        # trials of one shape share, and reused on every rung
        if dirs.shape[2] != theta0.shape[0]:
            dirs = np.empty((probe_count, 2, theta0.shape[0]))
        rng.standard_normal(out=dirs)  # the draws of rng.normal(size=dirs.shape)
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        scales = rng.random((probe_count, 2))  # probe inside the ball, not only the sphere
        xs = rng.random((probe_count, d))
        x_pairs = rng.random((probe_count, 2, d))
        trial_ok = True
        for p in range(probe_count):
            x = xs[p]
            xnorm = np.linalg.norm(x)
            ratios, slope = _probe_ladder(net, x, dirs[p], scales[p], radii)
            max_theta_ratio = max(max_theta_ratio, ratios.max())
            if (ratios > 1.1 * xnorm * _SLACK).any():
                trial_ok = False
            grad_gap = max(grad_gap, abs(ratios[-1] - slope))
            # input-side ratios at one in-ball parameter point per probe
            pert = net.with_flat_params(theta0 + radii[-1] * scales[p, 0] * dirs[p, 0])
            g1 = output_grad_params(pert, x_pairs[p, 0])
            g2 = output_grad_params(pert, x_pairs[p, 1])
            dx = np.linalg.norm(x_pairs[p, 0] - x_pairs[p, 1])
            if dx > 0:
                max_x_ratio = max(max_x_ratio, np.max(np.abs(g1 - g2)) / dx)
            max_sup = max(max_sup, np.max(np.abs(g1)), np.max(np.abs(g2)))
        if trial_ok:
            passed += 1
    return LStandardReport(
        lhat_theta=max_theta_ratio,
        lhat_x=max_x_ratio,
        lhat_sup=max_sup,
        pass_fraction=passed / trials if trials else 0.0,
        slack=_SLACK,
        grad_gap=grad_gap,
    )
