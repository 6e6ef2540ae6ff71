"""Exact piecewise-linear algebra for 1-D ReLU networks.

A PwlFunction is a sorted breakpoint sequence plus per-segment (slope,
intercept) pairs on a closed interval.  Network propagation is symbolic and
layer-wise: all units of a layer share one refinement of the interval, held
as breakpoints plus (cells x width) slope and intercept matrices.  An affine
layer is one matrix product; a ReLU adds, in one vectorized pass, every
root that falls strictly inside a cell, then zeroes the entries that are
negative on their cell; a breakpoint is dropped when every unit is collinear
across it.  All hinge-loss integrals against the dyadic square wave are
computed in closed form per cell, and ``grid_cells`` uses the same cells
to group a 1-D quadrature grid for the population hinge gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import InputDistribution
from .mlp import Mlp, DimensionError

__all__ = [
    "PwlFunction",
    "PieceCapError",
    "from_mlp_1d",
    "grid_cells",
    "count_pieces",
    "sign_crossings",
    "exact_hinge_loss_vs_fn",
    "sign_hinge_loss_vs_fn",
    "restrict_to_line",
    "piece_bound",
    "evaluate",
]

MERGE_TOL = 1e-12   # collinearity tolerance on (slope, intercept)
CONTINUITY_TOL = 1e-9
PIECE_CAP = 2**22   # refinement resource cap
KINK_TOL = 1e-9     # grid points this close to a kink or +-1 crossing are rows of their own


class PieceCapError(RuntimeError):
    """A symbolic operation would exceed the configured piece cap."""


@dataclass(frozen=True)
class PwlFunction:
    lo: float
    hi: float
    breaks: np.ndarray      # strictly increasing, strictly inside (lo, hi)
    slopes: np.ndarray      # one per segment, len(breaks) + 1
    intercepts: np.ndarray  # y-intercepts of the extended segment lines

    def __post_init__(self):
        b = np.ascontiguousarray(self.breaks, dtype=np.float64)
        s = np.ascontiguousarray(self.slopes, dtype=np.float64)
        c = np.ascontiguousarray(self.intercepts, dtype=np.float64)
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if s.shape != c.shape or s.shape[0] != b.shape[0] + 1:
            raise ValueError("segment count must be breakpoint count + 1")
        if b.size and (b[0] <= self.lo or b[-1] >= self.hi or np.any(np.diff(b) <= 0)):
            raise ValueError("breakpoints must be strictly increasing inside (lo, hi)")
        left = s[:-1] * b + c[:-1]
        right = s[1:] * b + c[1:]
        if b.size and np.max(np.abs(left - right)) > CONTINUITY_TOL:
            raise ValueError("adjacent segments disagree at a breakpoint")
        for a in (b, s, c):
            a.flags.writeable = False
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "intercepts", c)

    @property
    def n_pieces(self) -> int:
        return self.slopes.shape[0]

    def __call__(self, x):
        return evaluate(self, x)


def evaluate(f: PwlFunction, x) -> np.ndarray:
    """Vectorized evaluation; at a breakpoint the right segment is used."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.searchsorted(f.breaks, x, side="right")
    return f.slopes[idx] * x + f.intercepts[idx]


# ---------------------------------------------------------------------------
# internal algebra on (breaks, slopes, intercepts) without validation.  The
# slopes and intercepts hold one row per cell: vectors for a single function,
# (cells x units) matrices for a layer of units on a shared refinement.

def _edges(lo, hi, b):
    return np.concatenate([[lo], b, [hi]])


def _merge(b, s, c):
    """Drop each break whose neighbouring rows agree, within MERGE_TOL, in every unit."""
    if b.size == 0:
        return b, s, c
    same = (np.abs(np.diff(s, axis=0)) <= MERGE_TOL) & (np.abs(np.diff(c, axis=0)) <= MERGE_TOL)
    same = same.reshape(b.size, -1).all(axis=1)
    rows = np.concatenate([[True], ~same])
    return b[~same], s[rows], c[rows]


def _union_sorted(a, b):
    """Sorted union of two sorted arrays, duplicates dropped, in linear time."""
    u = np.concatenate([a, b])
    u.sort(kind="stable")  # timsort: one merge of the two runs
    keep = np.empty(u.size, dtype=bool)
    keep[:1] = True
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    return u[keep]


def _band_cuts(b, n):
    """0, 1, the 2^n-band edges of [0,1] and the points of sorted b inside [0,1], sorted."""
    inside = b[np.searchsorted(b, 0.0):np.searchsorted(b, 1.0, side="right")]
    return _union_sorted(np.arange(2**n + 1) / float(2**n), inside)


def _check_cap(n):
    if n > PIECE_CAP:
        raise PieceCapError(f"{n} pieces exceeds the cap {PIECE_CAP}")


def _split_at_level(lo, hi, b, s, c, level):
    """Insert breakpoints where some unit strictly crosses ``level`` inside a cell."""
    edges = _edges(lo, hi, b)
    col = edges.reshape(-1, *(1,) * (s.ndim - 1))  # broadcasts against the rows of s
    hit = np.nonzero((s * col[:-1] + c - level) * (s * col[1:] + c - level) < 0.0)
    roots = (level - c[hit]) / s[hit]
    cell = hit[0]
    roots = roots[(roots > edges[cell]) & (roots < edges[cell + 1])]
    if not roots.size:
        return b, s, c
    new_b = np.unique(np.concatenate([b, roots]))
    _check_cap(new_b.size + 1)
    edges = _edges(lo, hi, new_b)
    src = np.searchsorted(b, 0.5 * (edges[:-1] + edges[1:]), side="right")
    return new_b, s[src], c[src]


# ---------------------------------------------------------------------------

def _propagate(net: Mlp, lo: float, hi: float, hidden_breaks: list | None = None):
    """Symbolic propagation of a 1-input net: the output's merged (b, S, C).

    Appends to ``hidden_breaks``, when given, each hidden layer's breaks
    after its ReLU and before the merge: every point where one of the
    layer's pre-activations changes sign is among them.
    """
    if net.in_dim != 1:
        raise DimensionError("symbolic propagation needs a net with input dimension 1")
    b = np.array([], dtype=np.float64)
    S, C = np.ones((1, 1)), np.zeros((1, 1))  # the identity map
    last = len(net.layers) - 1
    for i, (W, bias) in enumerate(net.layers):
        S, C = S @ W.T, C @ W.T + bias
        if i != last:
            b, S, C = _split_at_level(lo, hi, b, S, C, 0.0)
            edges = _edges(lo, hi, b)
            neg = S * (0.5 * (edges[:-1] + edges[1:]))[:, None] + C < 0.0
            S[neg] = 0.0
            C[neg] = 0.0
            if hidden_breaks is not None:
                hidden_breaks.append(b)
        b, S, C = _merge(b, S, C)
    return b, S, C


def from_mlp_1d(net: Mlp, lo: float = 0.0, hi: float = 1.0) -> PwlFunction:
    """Exact symbolic propagation of a 1-input net into a PwlFunction."""
    b, S, C = _propagate(net, lo, hi)
    return PwlFunction(lo, hi, b, S[:, 0], C[:, 0])


def grid_cells(net: Mlp, n: int, dist: InputDistribution) -> InputDistribution:
    """The midpoint grid of ``uniform_cube(1, grid=m)`` grouped into cells
    for the hinge gradient of ``net`` against the 2^n-band square wave.

    The cuts are every hidden layer's breaks, the crossings of the net's
    output with +-1 and the band edges.  Between two cuts every ReLU mask,
    the wave and the hinge's active set are constant, so the per-point
    hinge loss and subgradient are affine in x.  Each cell that holds grid
    points becomes one row at the mean of its points, weighted by their
    share of the grid, and a weighted sum over the rows equals the one over
    the grid up to rounding.  A grid point within KINK_TOL of a break or a
    +-1 crossing is a row of its own, so the mask (preact >= 0) and hinge
    (margin <= 1) conventions decide it exactly as on the grid.
    """
    m = dist.meta["grid"]
    x = dist.points[:, 0]
    hidden = []
    b, S, C = _propagate(net, 0.0, 1.0, hidden)
    for level in (1.0, -1.0):
        b, S, C = _split_at_level(0.0, 1.0, b, S, C, level)
    kinks = b
    for h in hidden:
        kinks = _union_sorted(kinks, h)
    # a cell's first grid point is the first one at or past its cut, so a
    # point on a band edge opens the band the wave assigns it to
    bounds = np.unique(np.concatenate([
        np.searchsorted(x, _band_cuts(kinks, n)),
        np.searchsorted(x, kinks - KINK_TOL),
        np.searchsorted(x, kinks + KINK_TOL, side="right"),
    ]))
    lo, hi = bounds[:-1], bounds[1:]
    # x_j = (j + 1/2)/m, so the mean of x_lo..x_(hi-1) is (lo + hi)/(2m),
    # rounded once: it never leaves [x_lo, x_(hi-1)]
    return InputDistribution("grid_cells", ((lo + hi) / (2.0 * m))[:, None], (hi - lo) / m,
                             {"d": 1, "grid": m, "n": n})


def count_pieces(f: PwlFunction) -> int:
    """Number of maximal affine segments (collinear neighbours merged)."""
    b, s, c = _merge(f.breaks, f.slopes, f.intercepts)
    return s.shape[0]


def piece_bound(depth: int, width: int) -> int:
    """Worst-case piece count of a depth-L width-k 1-D ReLU net: 2^(L-1) k^L."""
    return 2 ** (depth - 1) * width**depth


def _cells_with_signs(f: PwlFunction):
    """Refine at zero crossings; per-cell sign with sign(0) = +1."""
    b, s, c = _split_at_level(f.lo, f.hi, f.breaks, f.slopes, f.intercepts, 0.0)
    edges = _edges(f.lo, f.hi, b)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = s * mids + c
    return edges, np.where(vals >= 0.0, 1, -1)


def sign_crossings(f: PwlFunction) -> int:
    """Number of jumps of x -> sign(f(x)), with sign(0) = +1.

    Each transversal zero counts once; a flat zero interval counts once
    per sign flip at its ends.
    """
    _, signs = _cells_with_signs(f)
    return int(np.count_nonzero(np.diff(signs)))


def _square_wave_on_mids(mids: np.ndarray, n: int) -> np.ndarray:
    cells = np.floor(mids * 2**n).astype(np.int64)
    return np.where(cells % 2 == 0, 1.0, -1.0)


def exact_hinge_loss_vs_fn(f: PwlFunction, n: int) -> float:
    """Closed-form integral of max(0, 1 - f_n(x) f(x)) over [0,1].

    The integrand is affine on the common refinement of f's breakpoints,
    the 2^n dyadic band edges, and the crossings of f with the levels
    +-1, so the midpoint value integrates each cell exactly.
    """
    if f.lo > 0.0 or f.hi < 1.0:
        raise ValueError("function domain must contain [0,1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(2**n + f.n_pieces)
    b, s, c = f.breaks, f.slopes, f.intercepts
    for level in (1.0, -1.0):
        b, s, c = _split_at_level(f.lo, f.hi, b, s, c, level)
    cuts = _band_cuts(b, n)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    widths = np.diff(cuts)
    src = np.searchsorted(b, mids, side="right")
    vals = s[src] * mids + c[src]
    wave = _square_wave_on_mids(mids, n)
    integrand = np.maximum(0.0, 1.0 - wave * vals)
    return float(np.dot(widths, integrand))


def sign_hinge_loss_vs_fn(f: PwlFunction, n: int) -> float:
    """Hinge loss of the symbolic sign of f against the square wave.

    sign(f) takes values +-1 (sign(0) = +1), so the loss is exactly twice
    the measure where sign(f) disagrees with the wave.  The sign is
    composed symbolically; no discontinuous function is materialized.  The
    measure is summed exactly and rounded once, so a dyadic lower bound on
    the loss holds with no tolerance.
    """
    if f.lo > 0.0 or f.hi < 1.0:
        raise ValueError("function domain must contain [0,1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(2**n + f.n_pieces)
    edges, signs = _cells_with_signs(f)
    cuts = _band_cuts(edges, n)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    cell = np.searchsorted(edges[1:-1], mids, side="right")
    disagree = (signs[cell] != _square_wave_on_mids(mids, n)).astype(np.int8)
    # interior endpoints of a run of disagreeing cells cancel: the measure is
    # the sum of run ends minus run starts.  Scaled by 2^n, the band edges
    # among them are small integers that np.sum adds exactly; fsum adds the
    # few others, which come from f's own cells.
    jump = np.diff(disagree, prepend=0, append=0)
    ends = np.concatenate([cuts[jump < 0], -cuts[jump > 0]]) * 2.0**n
    whole = ends == np.floor(ends)
    return 2.0 * math.fsum([ends[whole].sum(), *ends[~whole]]) / 2**n


def restrict_to_line(net: Mlp, y) -> Mlp:
    """Freeze the first d-1 coordinates at y, leaving a 1-input net.

    The frozen part of the first layer folds into its bias, so
    forward(restricted, x) == forward(net, (y, x)) exactly and widths are
    unchanged.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    d = net.in_dim
    if y.shape != (d - 1,):
        raise DimensionError(f"expected frozen vector of length {d - 1}, got {y.shape}")
    W1, b1 = net.layers[0]
    newW = W1[:, -1:].copy()
    newb = b1 + W1[:, :-1] @ y
    return Mlp([(newW, newb)] + list(net.layers[1:]))
