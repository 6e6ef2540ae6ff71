"""Bounded-norm kernel classes: feature maps and hinge minimization.

The hypothesis class is {x -> <Psi(x), w> : ||w|| <= B} for a feature map
Psi with components in [-1,1].  Minimization over an enumerated support is
projected averaged subgradient descent on the exact finite-sum objective;
the certificate records the achieved loss alongside the worst-case regret
bound B*sqrt(N)/sqrt(T) rather than pretending tightness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boolfn import sign_index
from .mlp import Mlp

__all__ = [
    "FeatureMap",
    "KernelSolveResult",
    "feature_map_from_family",
    "random_sign_features",
    "min_hinge",
    "min_hinge_family",
    "hardness_bound",
    "hardness_bound_variants",
    "LinearHardnessReport",
    "verify_linear_hardness",
    "Depth2KernelReduction",
    "depth2_to_kernel",
]


@dataclass(frozen=True)
class FeatureMap:
    """Psi: X -> [-1,1]^N, evaluated row-wise on point matrices."""

    n_features: int
    evaluate: callable = field(repr=False)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.evaluate(np.asarray(X)), dtype=np.float64)
        if out.ndim != 2 or out.shape[1] != self.n_features:
            raise ValueError(f"feature map returned shape {out.shape}")
        if np.max(np.abs(out)) > 1.0 + 1e-12:
            raise ValueError("feature values escape [-1,1]")
        return out


def feature_map_from_family(family) -> FeatureMap:
    """Psi(x) = (f_1(x), ..., f_N(x)) for +-1 member functions."""
    if not family:
        raise ValueError("family must be nonempty")
    tables = np.stack([f.table for f in family]).astype(np.float64)

    def evaluate(X):
        idx = sign_index(X)
        return tables[:, idx].T

    return FeatureMap(len(family), evaluate)


def random_sign_features(n: int, count: int, seed: int) -> FeatureMap:
    """``count`` independent uniform sign tables on {+-1}^n."""
    rng = np.random.default_rng(seed)
    tables = (rng.integers(0, 2, size=(count, 2**n)) * 2.0 - 1.0)

    def evaluate(X):
        idx = sign_index(X)
        return tables[:, idx].T

    return FeatureMap(count, evaluate)


@dataclass
class KernelSolveResult:
    w: np.ndarray
    loss: float
    B: float
    iters: int
    regret_bound: float          # B sqrt(N) / sqrt(T), worst case


def _solve_batched(Phi: np.ndarray, Y: np.ndarray, weights: np.ndarray,
                   B: float, iters: int):
    """Projected averaged subgradient descent, all targets as columns.

    Phi: (m, N); Y: (m, d) of +-1 labels.  Step eta_t = B/(sqrt(N) sqrt(t)),
    projection onto the B-ball per column, running iterate average.
    Returns (W_avg, losses).
    """
    m, N = Phi.shape
    d = Y.shape[1]
    wY = weights[:, None] * Y
    W = np.zeros((N, d))
    Wsum = np.zeros((N, d))
    base = B / np.sqrt(N)
    buf = np.empty((m, d))  # margins, then the masked weighted labels
    active = np.empty((m, d), dtype=bool)
    for t in range(1, iters + 1):
        np.matmul(Phi, W, out=buf)
        buf *= Y
        np.less_equal(buf, 1.0, out=active)
        np.multiply(wY, active, out=buf)
        G = -(Phi.T @ buf)
        eta = base / np.sqrt(t)
        W -= eta * G
        norms = np.linalg.norm(W, axis=0)
        scale = np.minimum(1.0, B / np.maximum(norms, 1e-300))
        W *= scale
        Wsum += W
    Wavg = Wsum / iters
    return Wavg, np.einsum("m,md->d", weights, np.maximum(0.0, 1.0 - Y * (Phi @ Wavg)))


def min_hinge(psi: FeatureMap, B: float, target, dist, iters: int = 10**5) -> KernelSolveResult:
    """Minimize the exact population hinge loss over the B-ball.

    ``target`` is a BooleanFn or any callable mapping support points to
    +-1 labels.  B = 0 short-circuits to the zero predictor with loss
    exactly 1.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if dist.n_points == 0:
        raise ValueError("empty distribution support")
    X = dist.points
    y = np.asarray(target(X), dtype=np.float64).reshape(-1)
    if B == 0.0:
        loss = float(np.sum(dist.weights))
        return KernelSolveResult(np.zeros(psi.n_features), loss, B, 0, 0.0)
    Phi = psi(X)
    W, losses = _solve_batched(Phi, y[:, None], dist.weights, B, iters)
    return KernelSolveResult(
        w=W[:, 0],
        loss=float(losses[0]),
        B=B,
        iters=iters,
        regret_bound=B * np.sqrt(psi.n_features) / np.sqrt(iters),
    )


def min_hinge_family(psi: FeatureMap, B: float, family, dist, iters: int = 2000):
    """Solve min_hinge for every family member simultaneously (shared Phi)."""
    X = dist.points
    if B == 0.0:
        return np.full(len(family), float(np.sum(dist.weights)))
    Phi = psi(X)
    Y = np.stack([np.asarray(f(X), dtype=np.float64) for f in family], axis=1)
    _, losses = _solve_batched(Phi, Y, dist.weights, B, iters)
    return losses


def hardness_bound(N: int, B: float, d: int) -> float:
    """max(0, 1 - sqrt(2 sqrt(5) N) B / d^(1/12)): the proof-end constant."""
    if N < 1 or d < 1 or B < 0:
        raise ValueError("need N, d >= 1 and B >= 0")
    return max(0.0, 1.0 - np.sqrt(2.0 * np.sqrt(5.0) * N) * B / d ** (1.0 / 12.0))


def hardness_bound_variants(N: int, B: float, d: int) -> dict:
    """All stated constant/exponent variants, for the record."""
    return {
        "proof_end_sqrt_2sqrt5N_d112": hardness_bound(N, B, d),
        "statement_sqrt_5N_d112": max(0.0, 1.0 - np.sqrt(5.0 * N) * B / d ** (1.0 / 12.0)),
        "corollary_sqrt_5N_d15": max(0.0, 1.0 - np.sqrt(5.0 * N) * B / d ** (1.0 / 5.0)),
    }


@dataclass
class LinearHardnessReport:
    n_features: int
    B: float
    family_size: int
    losses: np.ndarray
    average_loss: float
    bound: float
    bound_variants: dict
    bound_vacuous: bool
    slack: float
    grad_identity_max_err: float
    solver_iters: int


def _grad_identity_check(Phi, Y, weights, lam, rng, pairs=20) -> float:
    """Central finite differences of G_j at 0 vs the analytic correlation.

    G_j(w) = L_j(w) + (lam/2)||w||^2 is affine in w near 0 (all margins
    are strictly inside the hinge), so the FD derivative must equal
    -E[f_j Psi_i] exactly up to roundoff.
    """
    m, N = Phi.shape
    d = Y.shape[1]
    h = 1e-6
    worst = 0.0
    for _ in range(pairs):
        i = int(rng.integers(N))
        j = int(rng.integers(d))
        e = np.zeros(N)
        e[i] = h

        def G(w):
            margins = Y[:, j] * (Phi @ w)
            return float(
                np.dot(weights, np.maximum(0.0, 1.0 - margins))
                + 0.5 * lam * np.dot(w, w)
            )

        fd = (G(e) - G(-e)) / (2 * h)
        analytic = -float(np.dot(weights, Y[:, j] * Phi[:, i]))
        worst = max(worst, abs(fd - analytic))
    return worst


def verify_linear_hardness(psi: FeatureMap, B: float, family, dist,
                           iters: int = 2000, seed: int = 0) -> LinearHardnessReport:
    """Average the per-member hinge minima and compare to the formula bound.

    At desk scale the d^(1/12) bound is usually vacuous; the report says
    so explicitly (bound_vacuous) instead of pretending tightness.  Also
    runs the regularized-objective gradient-at-zero identity check on 20
    random (feature, member) pairs.
    """
    losses = min_hinge_family(psi, B, family, dist, iters)
    d = len(family)
    N = psi.n_features
    bound = hardness_bound(N, B, d)
    X = dist.points
    Phi = psi(X)
    Y = np.stack([np.asarray(f(X), dtype=np.float64) for f in family], axis=1)
    lam = np.sqrt(2.0 * np.sqrt(5.0) * N) / (d ** (1.0 / 12.0) * max(B, 1e-12))
    err = _grad_identity_check(Phi, Y, dist.weights, lam, np.random.default_rng(seed))
    avg = float(np.mean(losses))
    return LinearHardnessReport(
        n_features=N,
        B=B,
        family_size=d,
        losses=np.asarray(losses),
        average_loss=avg,
        bound=bound,
        bound_variants=hardness_bound_variants(N, B, d),
        bound_vacuous=bound == 0.0,
        slack=avg - bound,
        grad_identity_max_err=err,
        solver_iters=iters,
    )


@dataclass
class Depth2KernelReduction:
    feature_map: FeatureMap
    selector: callable          # z -> coefficient vector of length n_features
    rounded_net: Mlp
    n_features: int
    delta: float
    radius: float
    rounding_bound: float       # pointwise |g - g_hat| <= R sqrt(k) Delta n
    coefficient_bound: float    # ||u(z)|| <= 3 R sqrt(n) ||u||


def depth2_to_kernel(net: Mlp, delta: float, R: float, n: int) -> Depth2KernelReduction:
    """Round the z-side weights to the Delta grid and linearize over z.

    The hidden argument <w_i, x> + <v_i, z> + b_i becomes, after rounding
    v down coordinatewise to Delta Z, a member of a finite feature family
    Psi_{i,j}(x) = relu(<w_i, x> + j + b_i) / (3 R sqrt(n)) indexed by the
    achievable grid values j; the rounded net evaluates exactly as
    <u(z), Psi(x)> where u(z) places 3 R sqrt(n) u_i at (i, j_i(z)).
    The grid covers every achievable j, extending past R sqrt(n) when
    floor-rounding grows a coordinate.
    """
    if not 0 < delta < 1:
        raise ValueError("Delta must lie in (0,1)")
    if net.depth != 2:
        raise ValueError("reduction applies to depth-2 nets")
    if net.in_dim != 2 * n:
        raise ValueError(f"expected input dimension {2 * n}")
    W1, b1 = net.layers[0]
    W2, b2 = net.layers[1]
    if b2[0] != 0.0:
        raise ValueError("reduction requires a zero output bias")
    k = W1.shape[0]
    w = W1[:, :n]
    v = W1[:, n:]
    u = W2[0]
    norms = [np.linalg.norm(u), float(np.linalg.norm(b1))]
    norms += [np.linalg.norm(w[i]) for i in range(k)]
    norms += [np.linalg.norm(v[i]) for i in range(k)]
    if max(norms) > R + 1e-12:
        raise ValueError(f"a weight norm {max(norms)} exceeds R = {R}")

    v_int = np.floor(v / delta).astype(np.int64)  # v_hat = delta * v_int
    v_hat = delta * v_int
    scale = 3.0 * R * np.sqrt(n)
    M = max(int(np.floor(R * np.sqrt(n) / delta)), int(np.max(np.abs(v_int).sum(axis=1))))
    grid = np.arange(-M, M + 1)
    n_j = grid.shape[0]
    N = k * n_j

    def evaluate(X):
        X = np.asarray(X, dtype=np.float64)
        A = X @ w.T + b1  # (m, k)
        feats = np.maximum(0.0, A[:, :, None] + delta * grid[None, None, :])
        return (feats / scale).reshape(X.shape[0], N)

    fmap = FeatureMap(N, evaluate)

    def selector(z):
        z = np.asarray(z, dtype=np.float64).reshape(n)
        j_int = np.rint(v_int @ z).astype(np.int64)
        coeff = np.zeros(N)
        for i in range(k):
            coeff[i * n_j + (int(j_int[i]) + M)] = scale * u[i]
        return coeff

    rounded = Mlp([(np.concatenate([w, v_hat], axis=1), b1), (W2, b2)])
    return Depth2KernelReduction(
        feature_map=fmap,
        selector=selector,
        rounded_net=rounded,
        n_features=N,
        delta=delta,
        radius=R,
        rounding_bound=R * np.sqrt(k) * delta * n,
        coefficient_bound=scale * float(np.linalg.norm(u)),
    )
