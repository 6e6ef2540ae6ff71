"""Population-gradient descent on the hinge loss, with full trajectories.

The gradient at each step is the mean of the per-point hinge subgradients
over a uniform support (exact on enumerated supports, midpoint quadrature
on [0,1]).  A run records loss, gradient norm and parameter distance at
every iterate.  It copies theta_0 once into a vector it owns, builds one
net over it and steps that vector in place (theta -= eta * g, the same
bits as theta - eta * g); the vector is never handed out, the input net
is left as it was, and the returned net holds a copy.  The loop's
bookkeeping (the norms of g and of theta - theta_0, and the step eta g)
goes through one scratch vector.

Against the 1-D square wave on a midpoint grid of at least CELL_MIN_GRID
points, each step takes the grid's loss and gradient from two rows per
cell instead of one row per grid point.  ``pwl.grid_cells`` cuts the grid
at the hidden-unit kinks and the net's +-1 crossings only.  On a cell
every ReLU mask and the hinge regime are fixed, so the output's parameter
gradient is affine in x and the cell's share of the grid sum needs only
two integer moments of its hinge factors.  Those come from prefix sums of
the labels, read per step at the cell bounds off where the 2^n + 1 band
edges fall on the grid: the target is never evaluated on the grid, and a
run's label state is O(2^n).  The band edges are never cut, so the rows do
not grow with the number of bands.  The loss and gradient equal the
grid's up to rounding.

Every other target or distribution, smaller grids, where the symbolic
propagation costs more than it saves, grids with fewer points than bands,
and grids above MAX_GRID_POINTS, where the moments could stop being
exact, take the dense gradient over every point from
``mlp._population_hinge_grad_fn``.  The points and labels are computed
once per run, and each step's forward and backward passes stream the
points in row blocks through buffers that the run allocates once, sized
for one block: the run's net keeps its layer views for the whole run.
Its losses and gradients are ``population_hinge_grad``'s, bit for bit,
and a grid of fewer than 2 ``mlp.ROW_BLOCK`` points (every dense run of
the experiments) is one block: one pass over all rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import TelgarskyTarget
from .dists import MAX_GRID_POINTS
from .mlp import Mlp, _population_hinge_grad_fn, hinge_grad_rows
from .pwl import grid_cells

__all__ = ["GdConfig", "Trajectory", "GdDivergence", "gd_train", "CELL_MIN_GRID"]

# Smallest grid whose gradient is taken from cell moments.  One gradient
# with one BLAS thread on a 2-core Xeon, a dense step of a run (its labels
# and buffers already held) vs moment rows (propagation included):
# gd-sanity's depth-12 net after 2000 steps, 443 pieces, 0.21 vs 2.3 ms at
# 64 points, 1.2 vs 3.1 ms at 512, 2.9 vs 2.9 ms at 1024, 5.6 vs 4.2 ms at
# 2048; the depth-5 flatline net after 100 steps at 512 points, 0.39 vs
# 0.55 ms; depth 6 after 100 steps at 1024, 1.2 vs 0.24 ms; depth 8 after
# 25 steps at 4096, 7.5 vs 0.30 ms.  The faster dense step moves the
# crossover on the 443-piece net up to 1024, where the two tie.
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

    iters: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    param_dist: np.ndarray
    final_net: Mlp


def _groups_into_cells(target, dist) -> bool:
    # 2^n <= m bounds the band-edge label state by the grid's size; up to
    # MAX_GRID_POINTS, P1 <= m^2 <= 2^48 in int64 and its float64 differences are exact
    m = dist.n_points
    return (isinstance(target, TelgarskyTarget) and dist.kind == "uniform_cube"
            and max(CELL_MIN_GRID, 2**target.n) <= m <= MAX_GRID_POINTS)


def _label_prefix(x, n):
    """(j -> (P0[j], P1[j])): the label prefix sums P0[j] = sum_{i<j} y_i
    and P1[j] = sum_{i<j} y_i (2i+1) of the 2^n-band wave on the midpoint
    grid x, read off the band edges.  Band k, of sign +1 iff k is even,
    holds the points E_k <= i < E_(k+1), E_k = #{x_i < k 2^-n}: a point on
    an edge opens its band, as the wave's floor rule says.  Over
    E_k <= i < j, sum (2i+1) = j^2 - E_k^2; every sum is exact in int64."""
    E = np.searchsorted(x, np.arange(2**n + 1) * 2.0**-n)
    s = 1 - 2 * (np.arange(2**n + 1) % 2)
    P0E = np.concatenate([[0], np.cumsum(s[:-1] * np.diff(E))])
    P1E = np.concatenate([[0], np.cumsum(s[:-1] * np.diff(E * E))])

    def at(j):
        k = np.searchsorted(E, j, side="right") - 1
        return P0E[k] + s[k] * (j - E[k]), P1E[k] + s[k] * (j * j - E[k] * E[k])

    return at


def _factor_moments(f, L, S0, S1, T1):
    """Per cell, the moments c0 = sum c_i and c1 = sum c_i (2i+1) of the
    hinge factors c_i, with the cell's active count, from the cell's
    output f, its point count L and label moments S0 = sum y_i,
    S1 = sum y_i (2i+1) and T1 = sum (2i+1).

    The hinge at a point is active + c f: c = -y where |f| <= 1, where
    every point is active; c = 1[y = -1] where f > 1, and c = -1[y = +1]
    where f < -1, where only the points with c != 0 are.  Every moment is
    an integer (L - S0 counts the labels -1 twice).
    """
    above, below = f > 1.0, f < -1.0
    c0 = np.where(above, (L - S0) // 2, np.where(below, -((L + S0) // 2), -S0))
    c1 = np.where(above, (T1 - S1) // 2, np.where(below, -((T1 + S1) // 2), -S1))
    active = np.where(above | below, np.abs(c0), L)
    return c0, c1, active


def _row_weights(w, c0, c1, lo, L):
    """Signed weights (beta_a, beta_b) of a cell's rows at x_lo and
    x_(hi-1) that carry its moments: beta_a + beta_b = w c0 and
    beta_a (2 lo + 1) + beta_b (2 hi - 1) = w c1.  beta_b lists only the
    cells with L > 1; a one-point cell is the row beta_a = w c0 alone."""
    two = L > 1
    beta_b = w * (c1 - c0 * (2 * lo + 1))[two] / (2.0 * (L[two] - 1))
    beta_a = w * c0
    beta_a[two] -= beta_b
    return beta_a, beta_b


def _moment_grad(target, dist):
    """(net -> (loss, grad)) over the midpoint grid ``dist`` against the
    wave ``target``, from two rows per ``grid_cells`` cell.

    f is affine on a cell [lo, hi), so the cell's sum of c_i f(x_i) and of
    c_i times the output's parameter gradient at x_i are matched by the
    rows x_lo and x_(hi-1) weighted to carry c0 and c1.  A one-point cell
    is one row, which the factor rule decides exactly as the grid does.
    """
    x = dist.points[:, 0]
    w = dist.weight
    prefix = _label_prefix(x, target.n)

    def grad(net):
        bounds = grid_cells(net, x)
        P0, P1 = prefix(bounds)
        lo, hi = bounds[:-1], bounds[1:]
        L = hi - lo
        two = L > 1
        rows = np.concatenate([lo, hi[two] - 1])

        def moment_rows(out):
            f = out[:lo.size].copy()
            f[two] = 0.5 * (f[two] + out[lo.size:])  # f at the cell's centre
            c0, c1, active = _factor_moments(f, L, np.diff(P0), np.diff(P1),
                                             hi * hi - lo * lo)
            dout = np.concatenate(_row_weights(w, c0, c1, lo, L))
            return float(w * active.sum() + np.dot(dout, out)), dout

        return hinge_grad_rows(net, x[rows, None], moment_rows)

    return grad


def gd_train(net: Mlp, target, dist, cfg: GdConfig) -> Trajectory:
    """Run ``cfg.iters`` steps of theta <- theta - eta * population gradient.

    Records (loss, grad norm, distance from theta_0) at every iterate
    including the initial one, so the arrays have iters+1 entries and
    loss[-1] is the loss of the returned net: a new net, or ``net`` itself
    when eta = 0.
    """
    if _groups_into_cells(target, dist):
        grad = _moment_grad(target, dist)
    else:
        grad = _population_hinge_grad_fn(net, target, dist)
    theta0 = net.flat_params()
    T = cfg.iters
    loss = np.empty(T + 1)
    gnorm = np.empty(T + 1)
    pdist = np.zeros(T + 1)
    if cfg.eta == 0.0:  # the zero step is exact: the input net throughout
        theta, current = theta0, net
    else:  # one net over a vector the run owns, stepped in place
        theta = theta0.copy()
        current = net.with_flat_params(theta)
    # the squares of g, the step eta g and the squares of theta - theta0;
    # a finite norm implies finite entries, so the entries are scanned
    # only when a norm is not finite
    s = np.empty_like(theta0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            l, g = grad(current)
            gnorm[t] = math.sqrt(np.add.reduce(np.multiply(g, g, out=s)))
            if not (math.isfinite(l) and (math.isfinite(gnorm[t]) or np.isfinite(g).all())):
                raise GdDivergence(
                    f"non-finite loss or gradient at iteration {t} (loss={l})"
                )
            loss[t] = l
            if t < T and cfg.eta != 0.0:
                theta -= np.multiply(g, cfg.eta, out=s)
                np.subtract(theta, theta0, out=s)
                pdist[t + 1] = math.sqrt(np.add.reduce(np.multiply(s, s, out=s)))
                if not (math.isfinite(pdist[t + 1]) or np.isfinite(theta).all()):
                    raise GdDivergence(f"non-finite parameters at iteration {t + 1}")
    final = net if cfg.eta == 0.0 else net.with_flat_params(theta.copy())
    return Trajectory(np.arange(T + 1), loss, gnorm, pdist, final)
