"""Exact hand-built targets and ReLU realizations.

Contains the high-frequency square-wave target and its deep width-2
realization by iterated tent maps, a gridded Lipschitz approximator built
from soft cell indicators, and exact OR-parity networks on sign inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import Mlp

__all__ = [
    "TelgarskyTarget",
    "telgarsky_target",
    "telgarsky_net",
    "lipschitz_approx_net",
    "or_parity_net",
]

LIPSCHITZ_NET_CELL_CAP = 2**16  # resource cap on n^d grid cells


@dataclass(frozen=True)
class TelgarskyTarget:
    """Square wave on [0,1]: 2^n alternating bands of width 2^-n.

    Value is +1 on the band [2t/2^n, (2t+1)/2^n) -- left endpoints
    inclusive, so the sign at x is +1 iff floor(x * 2^n) is even.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != 1:
            raise ValueError(f"expected dimension 1, got {X.shape[1]}")
        if (X < 0).any() or (X > 1).any():
            raise ValueError("inputs must lie in [0,1]")
        cells = np.floor(X[:, 0] * 2**self.n).astype(np.int64)
        # x == 1.0 falls in the closing band, which has even index 2^n
        return np.where(cells % 2 == 0, 1.0, -1.0)


def telgarsky_target(n: int) -> TelgarskyTarget:
    return TelgarskyTarget(n)


def telgarsky_net(n: int) -> Mlp:
    """Width-2 net computing m^(n)(x + 2^-(n+1)) - 1/2 for the tent map
    m(x) = relu(2 relu(x) - 4 relu(x - 1/2)); its sign realizes the
    2^n-band square wave up to a measure-zero breakpoint set.

    Each stage keeps the pair (relu(z), relu(z - 1/2)); the identity
    relu(relu(z) - 1/2) = relu(z - 1/2) makes the composition exact.
    Depth is n+2 affine stages, width 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = 0.5 ** (n + 1)
    layers = [(np.array([[1.0], [1.0]]), np.array([shift, shift - 0.5]))]
    stage_W = np.array([[2.0, -4.0], [2.0, -4.0]])
    stage_b = np.array([0.0, -0.5])
    for _ in range(n - 1):
        layers.append((stage_W, stage_b))
    # last tent's outer relu, then the affine drop by 1/2
    layers.append((np.array([[2.0, -4.0]]), np.array([0.0])))
    layers.append((np.array([[1.0]]), np.array([-0.5])))
    return Mlp(layers)


def lipschitz_approx_net(h, L: float, C: float, n: int, d: int) -> Mlp:
    """Sum of scaled cell indicators approximating a Lipschitz h on [0,1]^d.

    Splits the cube into n^d congruent cells, anchors each cell at its
    center value, and adds the cell's soft indicator (margin gamma =
    n^-2d) scaled by that value.  The L1 error is at most (2C + L sqrt(d))
    / n^d.  Width of the first stage is n^d * 2d.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    M = n**d
    if M > LIPSCHITZ_NET_CELL_CAP:
        raise ValueError(f"n^d = {M} exceeds the cell cap {LIPSCHITZ_NET_CELL_CAP}")
    gamma = float(n) ** (-2 * d)
    side = 1.0 / n
    # cell index grid, one row per cell
    grid = np.stack(
        np.meshgrid(*[np.arange(n)] * d, indexing="ij"), axis=-1
    ).reshape(M, d)
    centers = (grid + 0.5) * side
    coeffs = np.asarray(h(centers), dtype=np.float64).reshape(M)
    if np.max(np.abs(coeffs)) > C + 1e-9:
        raise ValueError("|h| exceeds the stated bound C at a cell center")

    # stage 1: both face hinges for every cell, stacked
    lo = grid * side
    hi = lo + side
    W1 = np.zeros((2 * d * M, d))
    b1 = np.zeros(2 * d * M)
    for i in range(d):
        rows = np.arange(M) * 2 * d + 2 * i
        W1[rows, i] = -1.0
        b1[rows] = lo[:, i] + gamma
        W1[rows + 1, i] = 1.0
        b1[rows + 1] = -hi[:, i] + gamma
    # stage 2: one indicator unit per cell
    W2 = np.zeros((M, 2 * d * M))
    for c in range(M):
        W2[c, c * 2 * d : (c + 1) * 2 * d] = -1.0 / gamma
    b2 = np.ones(M)
    # stage 3: anchor-weighted sum
    W3 = coeffs[None, :]
    b3 = np.array([0.0])
    return Mlp([(W1, b1), (W2, b2), (W3, b3)])


def _staircase_layers(k: int):
    """Hat staircase hitting (-1)^(k-j) at s = -k + 2j, constant outside.

    Returns thresholds s_j (ReLU unit biases are -s_j) and output
    coefficients; k+1 units.
    """
    s = -k + 2 * np.arange(k + 1, dtype=np.float64)
    vals = np.array([(-1.0) ** (k - j) for j in range(k + 1)])
    slopes = np.zeros(k + 2)
    slopes[1:-1] = (vals[1:] - vals[:-1]) / 2.0
    coeffs = slopes[1:] - slopes[:-1]
    return s, vals[0], coeffs


def or_parity_net(z_prime, n: int) -> Mlp:
    """Depth-3 net computing prod_{i in I(z')} (x_i OR z_i) on {+-1}^2n.

    Stage 1 realizes each OR bit as -1 + relu(x_i + z_i + 2) -
    relu(x_i + z_i), stage 2 applies the parity staircase to the affine
    sum of OR bits, stage 3 combines.  Exact on all 4^n inputs.
    """
    z_prime = np.asarray(z_prime, dtype=np.int8)
    if z_prime.shape != (n,) or not np.all(np.abs(z_prime) == 1):
        raise ValueError("z' must be a +-1 vector of length n")
    I = [t for t in range(n) if z_prime[t] == 1]
    k = len(I)
    if k == 0:
        # empty product: constant +1 (one dead hidden unit keeps shapes legal)
        return Mlp([
            (np.zeros((1, 2 * n)), np.array([0.0])),
            (np.zeros((1, 1)), np.array([1.0])),
        ])
    # stage 1: pairs (relu(x_i + z_i + 2), relu(x_i + z_i)) for i in I
    W1 = np.zeros((2 * k, 2 * n))
    b1 = np.zeros(2 * k)
    for j, t in enumerate(I):
        W1[2 * j, t] = 1.0
        W1[2 * j, n + t] = 1.0
        b1[2 * j] = 2.0
        W1[2 * j + 1, t] = 1.0
        W1[2 * j + 1, n + t] = 1.0
    # s = sum of OR bits = -k + sum_j (u_j - v_j)
    s, v0, coeffs = _staircase_layers(k)
    W2 = np.zeros((k + 1, 2 * k))
    W2[:, 0::2] = 1.0
    W2[:, 1::2] = -1.0
    b2 = -k - s
    W3 = coeffs[None, :]
    b3 = np.array([v0])
    return Mlp([(W1, b1), (W2, b2), (W3, b3)])
