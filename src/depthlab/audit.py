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

A probe's rungs are taken in blocks: the theta / theta' pairs of a block
are rows of one reused buffer, and their outputs come from one stacked
forward pass (``mlp.forward_stacked``), so no net is built per rung.  As
a cross-check, the ratio on the smallest rung must match the directional
derivative |<grad_theta g_theta0(x), u>| along the unit vector u from
theta' to theta, up to O(radius); the report carries the largest gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import forward_stacked, output_grad_params

__all__ = ["LStandardReport", "audit_l_standard"]

_LADDER_FLOOR = 2.0**-20
_SLACK = 1.05  # tolerance factor on the 1.1 ||x|| ratio bound
# floats in one probe's (2, rungs, n_params) buffer, 512 KiB: a buffer for
# the whole ladder raised small-nets' peak RSS by ~3.6 MB (+8 %)
_BLOCK_FLOATS = 2**16


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
    for trial in range(trials):
        net = net_factory(int(rng.integers(2**63)))
        theta0 = net.flat_params()
        r_params = theta0.shape[0]
        d = net.in_dim
        # directions are drawn once per trial and reused on every rung
        dirs = rng.normal(size=(probe_count, 2, r_params))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        scales = rng.random((probe_count, 2))  # probe inside the ball, not only the sphere
        xs = rng.random((probe_count, d))
        x_pairs = rng.random((probe_count, 2, d))
        # theta (row 0) and theta' (row 1) of up to c rungs at a time
        c = max(1, _BLOCK_FLOATS // (2 * r_params))
        buf = np.empty((2, min(c, radii.size), r_params))
        trial_ok = True
        for p in range(probe_count):
            x = xs[p]
            xnorm = np.linalg.norm(x)
            rs = scales[p][:, None] * radii  # (2, rungs): r * s per pair side
            for j in range(0, radii.size, c):
                block = buf[:, : min(c, radii.size - j)]
                np.multiply(rs[:, j : j + block.shape[1], None], dirs[p][:, None], out=block)
                block += theta0  # theta0 + (r s) d
                out = forward_stacked(net, block, x)
                diff = np.subtract(block[0], block[1], out=block[0])
                dist = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=block[1]), axis=1))
                # a non-finite entry in either row makes its pair's distance non-finite
                if not np.isfinite(dist).all():
                    raise ValueError("non-finite parameter values")
                if not dist.all():
                    raise ValueError("probe points coincide")
                ratios = np.abs(out[0] - out[1]) / dist
                max_theta_ratio = max(max_theta_ratio, ratios.max())
                if (ratios > 1.1 * xnorm * _SLACK).any():
                    trial_ok = False
            # the last block ends on the smallest rung: its ratio against the
            # slope of g along u = diff / ||diff|| at theta0
            slope = abs(np.add.reduce(output_grad_params(net, x) * diff[-1])) / dist[-1]
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
