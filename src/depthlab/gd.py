"""Population-gradient descent on the hinge loss, with full trajectories.

The gradient at each step is the distribution-weighted average of per-point
hinge subgradients (exact on enumerated supports, quadrature/Monte Carlo on
the cube).  A run records loss, gradient norm and parameter distance at
every iterate.

Against the 1-D square wave on a midpoint grid of at least CELL_MIN_GRID
points (and more points than the wave has bands), each step first groups
the grid into cells on which the per-point subgradient is affine
(``pwl.grid_cells``: cuts at hidden-unit kinks, band edges and the net's
+-1 crossings) and backpropagates one row per cell instead of one per grid
point.  The loss and gradient equal the grid's up to rounding.  Every other
target or distribution, and smaller grids, where the symbolic propagation
costs more than it saves, take the grid itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import TelgarskyTarget
from .mlp import Mlp, population_hinge_grad
from .pwl import grid_cells

__all__ = ["GdConfig", "Trajectory", "GdDivergence", "gd_train", "CELL_MIN_GRID"]

# Smallest grid that is grouped into cells.  One gradient with one BLAS
# thread, dense vs cells (propagation included): a trained depth-12 net with
# 443 pieces, 0.54 vs 5.6 ms at 64 points, 3.2 vs 6.6 ms at 512, 7.1 vs
# 7.1 ms at 1024; the depth-5 flatline net after 100 steps at 512 points,
# 1.36 vs 1.37 ms; depth 6 at 1024, 3.4 vs 1.4 ms; depth 8 at 4096, 18 vs 2.8 ms.
CELL_MIN_GRID = 1024


class GdDivergence(RuntimeError):
    """Loss or gradient became non-finite during training."""


@dataclass(frozen=True)
class GdConfig:
    eta: float
    iters: int

    def __post_init__(self):
        if not self.eta >= 0.0:
            raise ValueError("eta must be >= 0")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


@dataclass
class Trajectory:
    """Per-iteration records for t = 0..T; final_net is the trained net."""

    config: GdConfig
    iters: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    param_dist: np.ndarray
    final_net: Mlp


def _groups_into_cells(target, dist) -> bool:
    if not (isinstance(target, TelgarskyTarget) and target.d == 1
            and dist.kind == "uniform_cube" and "grid" in dist.meta):
        return False
    m = dist.meta["grid"]
    return m >= CELL_MIN_GRID and 2**target.n < m


def gd_train(net: Mlp, target, dist, cfg: GdConfig) -> Trajectory:
    """Run ``cfg.iters`` steps of theta <- theta - eta * population gradient.

    Records (loss, grad norm, distance from theta_0) at every iterate
    including the initial one, so the arrays have iters+1 entries and
    loss[-1] is the loss of the returned net.
    """
    cells = _groups_into_cells(target, dist)
    theta = theta0 = net.flat_params()
    T = cfg.iters
    loss = np.empty(T + 1)
    gnorm = np.empty(T + 1)
    pdist = np.empty(T + 1)
    current = net
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            rows = grid_cells(current, target.n, dist) if cells else dist
            l, g = population_hinge_grad(current, target, rows)
            if not (np.isfinite(l) and np.isfinite(g).all()):
                raise GdDivergence(
                    f"non-finite loss or gradient at iteration {t} (loss={l})"
                )
            loss[t] = l
            gnorm[t] = np.linalg.norm(g)
            pdist[t] = np.linalg.norm(theta - theta0)
            if t < T:
                if cfg.eta != 0.0:
                    theta = theta - cfg.eta * g
                    if not np.isfinite(theta).all():
                        raise GdDivergence(f"non-finite parameters at iteration {t + 1}")
                    current = net.with_flat_params(theta)
                # eta == 0 keeps the exact same object: the zero step is exact
    return Trajectory(cfg, np.arange(T + 1), loss, gnorm, pdist, current)
