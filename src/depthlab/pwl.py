"""Exact piecewise-linear algebra for 1-D ReLU networks.

A PwlFunction is a sorted breakpoint sequence plus per-segment (slope,
intercept) pairs on a closed interval.  Network propagation is symbolic and
layer-wise: all units of a layer share one refinement of the interval, held
as breakpoints plus (cells x width) slope and intercept matrices.  An affine
layer is one matrix product; a ReLU adds, in one vectorized pass, every
root that falls strictly inside a cell, then zeroes the entries that are
negative on their cell; a breakpoint is dropped when every unit is collinear
across it.  The roots are placed by cell counts: sorted by value they are
grouped by cell, so the new breaks are scattered to positions read off
the per-cell counts, and each new cell's row is its old cell's, repeated
once per piece that cell splits into; propagation neither sorts nor
searches the breaks.

The hinge loss of sign(f) against the 2^n-band square wave f_n is closed
form per run of constant sign: the integral of f_n over [0, x] is a
triangle wave whose value at x follows from 2^n x, which is exact in
float64, so the bands are never enumerated and the cost is O(runs) for
every n up to MAX_WAVE_N = 52.  The loss is summed exactly and rounded
once.  The zero split of f that the sign certificates read is computed
once per function (``PwlFunction.sign_runs``).  ``grid_cells`` cuts a 1-D
quadrature grid at the same symbolic cells' hidden kinks and at the
output's +-1 crossings, never at the band edges, for the population hinge
gradient of gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mlp import Mlp, DimensionError

__all__ = [
    "PwlFunction",
    "PieceCapError",
    "from_mlp_1d",
    "grid_cells",
    "count_pieces",
    "sign_crossings",
    "sign_hinge_loss_vs_fn",
    "piece_bound",
    "evaluate",
]

MERGE_TOL = 1e-12   # collinearity tolerance on (slope, intercept)
CONTINUITY_TOL = 1e-9
PIECE_CAP = 2**22   # refinement resource cap
KINK_TOL = 1e-9     # grid points this close to a kink or +-1 crossing are rows of their own
MAX_WAVE_N = 52     # the 2^n-band edges of [0,1] are exact in float64 up to here


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

    @cached_property
    def sign_runs(self):
        """(edges, signs): the maximal intervals on which sign(f) is
        constant, with sign(0) = +1, and the int8 sign on each.  Computed
        once per function from the zero split of f, so the crossing count
        and the sign loss of one certificate share it."""
        b, s, c = _split_at_level(self.lo, self.hi, self.breaks, self.slopes,
                                  self.intercepts, 0.0)
        edges = _edges(self.lo, self.hi, b)
        signs = np.where(s * (0.5 * (edges[:-1] + edges[1:])) + c >= 0.0, 1, -1).astype(np.int8)
        flips = np.flatnonzero(np.diff(signs))
        edges = np.concatenate([edges[:1], edges[1 + flips], edges[-1:]])
        signs = signs[np.concatenate([[0], flips + 1])]
        edges.flags.writeable = False
        signs.flags.writeable = False
        return edges, signs

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
    same = (np.abs(s[1:] - s[:-1]) <= MERGE_TOL) & (np.abs(c[1:] - c[:-1]) <= MERGE_TOL)
    if same.ndim > 1:  # every unit agrees: one pass per unit over a contiguous row
        same = np.logical_and.reduce(np.ascontiguousarray(same.T), axis=0)
    if not same.any():
        return b, s, c
    keep = ~same
    rows = np.flatnonzero(np.concatenate([[True], keep]))
    return b[keep], s.take(rows, axis=0), c.take(rows, axis=0)


def _check_cap(n):
    if n > PIECE_CAP:
        raise PieceCapError(f"{n} pieces exceeds the cap {PIECE_CAP}")


def _split_at_level(lo, hi, b, s, c, level):
    """Insert breakpoints where some unit strictly crosses ``level`` inside a cell.

    The cells are disjoint open intervals, so sorting the roots by value
    also groups them by cell: the k-th new root of cell j lands at j + k
    among the new breaks, old break j moves up by the roots in cells <= j,
    and every new cell takes the row of the old cell that contains it.
    """
    edges = _edges(lo, hi, b)
    col = edges.reshape(-1, *(1,) * (s.ndim - 1))  # broadcasts against the rows of s
    hit = np.flatnonzero((s * col[:-1] + c - level) * (s * col[1:] + c - level) < 0.0)
    if not hit.size:
        return b, s, c
    roots = (level - c.take(hit)) / s.take(hit)
    cell = hit // (s.size // s.shape[0])  # the row of each flat index
    inside = (roots > edges[cell]) & (roots < edges[cell + 1])
    roots, cell = roots[inside], cell[inside]
    if not roots.size:
        return b, s, c
    order = np.argsort(roots, kind="stable")
    roots, cell = roots[order], cell[order]
    fresh = np.concatenate([[True], roots[1:] != roots[:-1]])  # units sharing a root
    roots, cell = roots[fresh], cell[fresh]
    counts = np.bincount(cell, minlength=b.size + 1)
    _check_cap(b.size + roots.size + 1)
    new_b = np.empty(b.size + roots.size)
    new_b[cell + np.arange(roots.size)] = roots
    new_b[np.arange(b.size) + np.cumsum(counts[:-1])] = b
    src = np.repeat(np.arange(b.size + 1), counts + 1)
    return new_b, s.take(src, axis=0), c.take(src, axis=0)


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
            np.putmask(S, neg, 0.0)
            np.putmask(C, neg, 0.0)
            if hidden_breaks is not None:
                hidden_breaks.append(b)
        b, S, C = _merge(b, S, C)
    return b, S, C


def from_mlp_1d(net: Mlp, lo: float = 0.0, hi: float = 1.0) -> PwlFunction:
    """Exact symbolic propagation of a 1-input net into a PwlFunction."""
    b, S, C = _propagate(net, lo, hi)
    return PwlFunction(lo, hi, b, S[:, 0], C[:, 0])


def grid_cells(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Index bounds of the cells of the sorted grid ``x`` in (0, 1) for the
    hinge gradient of ``net``: cell j holds the points bounds[j] to
    bounds[j+1] - 1, and bounds runs from 0 to len(x).

    The cuts are every hidden layer's breaks and the crossings of the
    net's output with +-1.  Between two cuts every ReLU mask and the
    hinge regime (f < -1, |f| <= 1 or f > 1) are constant, so the output's
    parameter gradient is affine in x whatever the labels.  A grid point
    within KINK_TOL of a cut is a cell of its own, so the mask
    (preact >= 0) and hinge (margin <= 1) conventions decide it exactly as
    on the grid; this needs a grid spacing above 2 KINK_TOL, which every
    grid of up to 2^28 points on [0, 1] has.  The cost is O(cuts), however
    many points and labels the grid holds.
    """
    hidden = []
    b, S, C = _propagate(net, 0.0, 1.0, hidden)
    for level in (1.0, -1.0):
        b, S, C = _split_at_level(0.0, 1.0, b, S, C, level)
    cuts = np.unique(np.concatenate([b, *hidden]))
    # a cell's first grid point is the first one at or past its cut
    return np.unique(np.concatenate([
        [0, x.size],
        np.searchsorted(x, cuts),
        np.searchsorted(x, cuts - KINK_TOL),
        np.searchsorted(x, cuts + KINK_TOL, side="right"),
    ]))


def count_pieces(f: PwlFunction) -> int:
    """Number of maximal affine segments (collinear neighbours merged)."""
    b, s, c = _merge(f.breaks, f.slopes, f.intercepts)
    return s.shape[0]


def piece_bound(depth: int, width: int) -> int:
    """Worst-case piece count of a depth-L width-k 1-D ReLU net: 2^(L-1) k^L."""
    return 2 ** (depth - 1) * width**depth


def sign_crossings(f: PwlFunction) -> int:
    """Number of jumps of x -> sign(f(x)), with sign(0) = +1.

    Each transversal zero counts once; a flat zero interval counts once
    per sign flip at its ends.
    """
    return f.sign_runs[1].size - 1


def _check_wave(f: PwlFunction, n: int):
    if f.lo > 0.0 or f.hi < 1.0:
        raise ValueError("function domain must contain [0,1]")
    if not 1 <= n <= MAX_WAVE_N:
        raise ValueError(f"n = {n} lies outside 1..{MAX_WAVE_N}, where the 2^n-band "
                         "edges are exact in float64")
    _check_cap(f.n_pieces)


def _band_position(x, n):
    """(r, k odd) for each x clipped to [0,1]: the part r = 2^n x - k
    covered of its band k = floor(2^n x).  2^n x, k and r are exact in
    float64, and 2^n W(x) = r (k even) or 1 - r (k odd) for W(x) the
    integral of f_n over [0, x], the triangle wave of height 2^-n."""
    r, k = np.modf(np.clip(x, 0.0, 1.0) * 2.0**n)
    return r, k % 2 == 1


def sign_hinge_loss_vs_fn(f: PwlFunction, n: int) -> float:
    """Hinge loss of the symbolic sign of f against the square wave, for n <= 52.

    sign(f) takes values +-1 (sign(0) = +1), so the loss is 1 minus the
    integral of sign(f) f_n; on an interval of constant sign (``sign_runs``)
    that integral is the sign times the rise of W(x) = integral_0^x
    f_n, the triangle wave of height 2^-n (W(x) = x - 2 M(x), for M(x) the
    measure of {f_n = -1} in [0, x]).  Scaled by 2^n, W at a run's edge
    is r or 1 - r for the edge's position r in its band, so 2^n times the loss
    is a sum of small integers and +-r terms, each exact in float64.  It is
    summed exactly and rounded once, so a dyadic lower bound on the loss
    holds with no tolerance.  The cost is O(runs), whatever n.
    """
    _check_wave(f, n)
    edges, signs = f.sign_runs
    # each edge's weight on W: the sign on its left minus the one on its
    # right (0 past either end)
    coef = -np.diff(signs.astype(np.int64), prepend=0, append=0)
    r, odd = _band_position(edges, n)
    frac = np.where(odd, coef, -coef) * r  # coef is +-1 or +-2: exact
    whole = 2**n - int(coef[odd].sum())
    return math.fsum([whole, *frac[frac != 0.0]]) / 2**n
