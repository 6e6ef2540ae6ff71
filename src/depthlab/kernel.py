"""Bounded-norm kernel classes: feature tables and hinge minimization.

The hypothesis class is {x -> <Psi(x), w> : ||w|| <= B} for a feature map
Psi with components in [-1,1], held as one table: ``FeatureMap`` is Psi on
the full enumeration of {+-1}^n, a (2^n, N) float64 matrix validated once
and read only against that enumeration.  Minimization is projected
averaged subgradient descent on the exact finite-sum objective over the
full enumeration, one column per target of a family (a (d, 2^n) table
matrix or the parity operator, whose columns are the same 2^n points: a
family of another width fails the family product); it returns the
averaged iterates with their losses, which upper-bound the minima, and
the correlations c_j = E[y_j Psi] = 2^-n Phi^T y_j of the features with
every target, from one family product (a fast Walsh-Hadamard transform
for the parities).
The first subgradient is -c_j, which the solver checks once against its
labels; a target with c_j exactly zero is a fixed point of the descent
(w_j stays 0), and only the other targets are iterated.  The same c_j
bound every minimum from below, L_j >= 1 - B ||c_j||, and are the
reference of the gradient-identity check.  The descent's labels are the
table rows of the live targets alone; in a kernel-hardness config they,
and the feature table, hold at most ``MAX_LABEL_ENTRIES`` entries each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import enumerate_signs, family_product
from .mlp import Mlp

__all__ = [
    "FeatureMap",
    "min_hinge_family",
    "hardness_bound",
    "hardness_bound_variants",
    "LinearHardnessReport",
    "verify_linear_hardness",
    "Depth2KernelReduction",
    "depth2_radius",
    "depth2_to_kernel",
]

MAX_LABEL_ENTRIES = 2**24  # 2^n points x k live targets, or x N features: 128 MiB of float64


@dataclass(frozen=True)
class FeatureMap:
    """Psi: {+-1}^n -> [-1,1]^N as its read-only C-contiguous (2^n, N) float64
    table Phi, row i at point i of the canonical enumeration."""

    table: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.table, dtype=np.float64)
        if t.ndim != 2 or t.size == 0:
            raise ValueError(f"a feature table is a nonempty (2^n, N) matrix, not {t.shape}")
        if not max(-float(t.min()), float(t.max())) <= 1.0 + 1e-12:  # roundoff; NaN fails
            raise ValueError("feature values escape [-1,1]")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def n_features(self) -> int:
        return self.table.shape[1]

    def __call__(self, dist) -> np.ndarray:
        """Phi, refused unless ``dist`` is the full enumeration of its 2^n points."""
        if not dist.is_full_enumeration or dist.n_points != len(self.table):
            raise ValueError(f"a table of {len(self.table)} feature rows needs their full "
                             f"enumeration, not a {dist.kind} support of {dist.n_points}")
        return self.table


def min_hinge_family(psi: FeatureMap, B: float, family, dist, iters: int = 2000):
    """Minimize the exact population hinge loss over the B-ball for every
    member of a family (a (d, 2^n) table matrix or a ``ParityFamily``) at
    once, sharing the feature table Phi = psi(dist).  ``dist`` reaches only
    the feature table; the family's columns are the same m points.

    Projected averaged subgradient descent, all targets as columns: step
    eta_t = B/(sqrt(N) sqrt(t)), projection onto the B-ball per column,
    running iterate average.  Returns (W, losses, C): W the (N, d) averaged
    iterates, losses their hinge losses and C = Phi^T Y / m the (N, d)
    feature-target correlations, one transposed family product with Phi
    times the uniform weight 1/m of each of the m points.

    At W = 0 every margin is 0 <= 1, so the first subgradient is -C.  It
    is computed from the labels as well and compared with -C once, so a
    wrong family product raises instead of bounding anything.  A target
    whose column of C is exactly zero keeps W_j = 0 at every step (zero
    update, norm 0, scale 1), so only the other k columns are iterated,
    against the (m, k) labels of those targets alone; the frozen ones are
    returned as the zero column, whose loss is exactly 1, as is every loss at
    B = 0 (step 0, scale 0).  Every bit equals the all-columns loop's
    wherever BLAS computes a product column the same way whatever the
    other columns are; tests/test_kernel.py checks this against a dense
    copy of that loop, one live target (the matrix-vector dispatch) and
    none included.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    m, d = dist.n_points, len(family)
    N = psi.n_features
    w = dist.weight
    Phi = psi(dist)
    C = family_product(family, w * Phi).T
    # the first subgradient is -C; a zero column of C never moves
    live = np.any(C != 0.0, axis=0)
    # (m, k) float64 labels, C-contiguous: column j is live member j's table row
    Yl = np.ascontiguousarray(family[live].T, dtype=np.float64)
    wYl = w * Yl
    k = Yl.shape[1]
    W = np.zeros((N, k))
    Wsum = np.zeros((N, k))
    base = B / np.sqrt(N)
    buf = np.empty((m, k))  # margins, then the masked weighted labels
    active = np.empty((m, k), dtype=bool)
    for t in range(1, iters + 1):
        np.matmul(Phi, W, out=buf)
        buf *= Yl
        np.less_equal(buf, 1.0, out=active)
        np.multiply(wYl, active, out=buf)
        G = -(Phi.T @ buf)
        # equal bit for bit on +-1 features; 1e-12 covers any map into [-1,1]
        if t == 1 and np.any(np.abs(G + C[:, live]) > 1e-12):
            raise RuntimeError("the family product disagrees with the first "
                               "subgradient -Phi^T Y / m")
        eta = base / np.sqrt(t)
        W -= eta * G
        norms = np.linalg.norm(W, axis=0)
        scale = np.minimum(1.0, B / np.maximum(norms, 1e-300))
        W *= scale
        Wsum += W
    Wl = Wsum / iters
    Wavg = np.zeros((N, d))
    Wavg[:, live] = Wl
    losses = np.full(d, 1.0)
    losses[live] = w * np.add.reduce(np.maximum(0.0, 1.0 - Yl * (Phi @ Wl)), axis=0)
    return Wavg, losses, C


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
    losses: np.ndarray
    average_loss: float
    lower_bounds: np.ndarray    # max(0, 1 - B ||c_j||) <= min over the B-ball
    average_lower_bound: float
    max_bracket_gap: float      # max over j of losses[j] - lower_bounds[j]
    fixed_point_targets: int    # targets with c_j = 0: the solver never moves them
    bound: float
    bound_variants: dict
    bound_vacuous: bool
    grad_identity_max_err: float
    parseval_rel_err: float     # | ||C||_F^2 - (1/m) sum_x ||Phi(x)||^2 | / the latter


def _grad_identity_check(Phi, family, C, lam, rng, pairs=20) -> float:
    """Central finite differences of G_j at 0 vs the solver's correlation.

    G_j(w) = L_j(w) + (lam/2)||w||^2 is affine in w near 0 (all margins
    are strictly inside the hinge), so the FD derivative along feature i
    must equal -E[f_j Psi_i] = -C[i, j] exactly up to roundoff.
    """
    N, d = C.shape
    m = len(Phi)
    h = 1e-6
    worst = 0.0
    for _ in range(pairs):
        i = int(rng.integers(N))
        j = int(rng.integers(d))
        e = np.zeros(N)
        e[i] = h
        y = np.asarray(family[j], dtype=np.float64)

        def G(w):
            margins = y * (Phi @ w)
            return float(
                np.add.reduce(np.maximum(0.0, 1.0 - margins)) / m
                + 0.5 * lam * np.dot(w, w)
            )

        fd = (G(e) - G(-e)) / (2 * h)
        worst = max(worst, abs(fd + float(C[i, j])))
    return worst


def verify_linear_hardness(psi: FeatureMap, B: float, family, dist,
                           iters: int = 2000, seed: int = 0) -> LinearHardnessReport:
    """Bracket the per-member hinge minima and compare to the formula bound.

    The solver's losses bound each minimum from above.  From below,
    hinge(z) >= alpha (1 - z) at alpha = 1 gives, by Cauchy-Schwarz over
    the B-ball, L_j(w) >= 1 - B ||c_j|| with c_j = E[y_j Psi],
    the solver's own correlations; the report keeps both sides, their
    largest gap and the count of zero-correlation targets.  At desk scale
    the d^(1/12) bound is usually vacuous; the report says so explicitly
    (bound_vacuous) instead of pretending tightness.  Also checks the
    regularized objective's gradient at zero against the same C on 20
    random (feature, member) pairs.

    C is checked as a whole by Parseval: the m members of the full parity
    family on m = 2^n points have sum_j y_j(x) y_j(x') = m [x = x'], so
    ||C||_F^2 = (1/m) sum_x ||Phi(x)||^2, which ``parseval_rel_err``
    compares.  On +-1 features and the dyadic weight 1/m both sides are exact.
    For another family the identity need not hold, and the error is only
    reported.
    """
    _, losses, C = min_hinge_family(psi, B, family, dist, iters)
    N, d = C.shape
    bound = hardness_bound(N, B, d)
    lower = np.maximum(0.0, 1.0 - B * np.linalg.norm(C, axis=0))
    lam = np.sqrt(2.0 * np.sqrt(5.0) * N) / (d ** (1.0 / 12.0) * max(B, 1e-12))
    Phi = psi.table  # the solver has read it on this dist
    err = _grad_identity_check(Phi, family, C, lam, np.random.default_rng(seed))
    energy = float(np.sum(C * C))
    parseval = dist.weight * float(np.sum(np.sum(Phi * Phi, axis=1)))
    return LinearHardnessReport(
        losses=losses,
        average_loss=float(np.mean(losses)),
        lower_bounds=lower,
        average_lower_bound=float(np.mean(lower)),
        max_bracket_gap=float(np.max(losses - lower)),
        fixed_point_targets=int(np.count_nonzero(~np.any(C != 0.0, axis=0))),
        bound=bound,
        bound_variants=hardness_bound_variants(N, B, d),
        bound_vacuous=bound == 0.0,
        grad_identity_max_err=err,
        parseval_rel_err=abs(energy - parseval) / max(parseval, 1e-300),
    )


@dataclass
class Depth2KernelReduction:
    feature_map: FeatureMap     # Psi on the x enumeration {+-1}^n
    coefficients: np.ndarray    # (2^n, N): row i is u(z) at point i of the z enumeration
    rounded_net: Mlp
    rounding_bound: float       # pointwise |g - g_hat| <= R sqrt(k) Delta n
    coefficient_bound: float    # ||u(z)|| <= 3 R sqrt(n) ||u||


def depth2_radius(net: Mlp, n: int) -> float:
    """The least R the reduction admits for a depth-2 net on pairs (x, z)
    in {+-1}^(2n): the largest of ||u||, ||b1|| and every hidden unit's
    ||w_i|| (x side) and ||v_i|| (z side)."""
    (W1, b1), (W2, _) = net.layers
    return max([float(np.linalg.norm(W2[0])), float(np.linalg.norm(b1))]
               + [float(np.linalg.norm(W1[i, :n])) for i in range(len(W1))]
               + [float(np.linalg.norm(W1[i, n:])) for i in range(len(W1))])


def depth2_to_kernel(net: Mlp, delta: float, R: float, n: int) -> Depth2KernelReduction:
    """Round the z-side weights to the Delta grid and linearize over z.

    The hidden argument <w_i, x> + <v_i, z> + b_i becomes, after rounding
    v down coordinatewise to Delta Z, a member of a finite feature family
    Psi_{i,j}(x) = relu(<w_i, x> + j + b_i) / (3 R sqrt(n)) indexed by the
    achievable grid values j; the rounded net evaluates exactly as
    <u(z), Psi(x)> where u(z) places 3 R sqrt(n) u_i at (i, j_i(z)); the
    coefficient table holds u(z) for every z of the enumeration, one row
    each.  The grid covers every achievable j, extending past R sqrt(n) when
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
    radius = depth2_radius(net, n)
    if radius > R + 1e-12:
        raise ValueError(f"a weight norm {radius} exceeds R = {R}")

    v_int = np.floor(v / delta).astype(np.int64)  # v_hat = delta * v_int
    v_hat = delta * v_int
    scale = 3.0 * R * np.sqrt(n)
    M = max(int(np.floor(R * np.sqrt(n) / delta)), int(np.max(np.abs(v_int).sum(axis=1))))
    grid = np.arange(-M, M + 1)
    n_j = grid.shape[0]
    N = k * n_j

    X = enumerate_signs(n).astype(np.float64)
    feats = np.maximum(0.0, (X @ w.T + b1)[:, :, None] + delta * grid[None, None, :])
    # unit i's column at z is i n_j + M + j_i(z), with j_i(z) = <v_int_i, z>
    cols = np.arange(k) * n_j + M + np.rint(X @ v_int.T).astype(np.int64)
    coefficients = np.zeros((2**n, N))
    np.put_along_axis(coefficients, cols, scale * u, axis=1)

    rounded = Mlp([(np.concatenate([w, v_hat], axis=1), b1), (W2, b2)])
    return Depth2KernelReduction(
        feature_map=FeatureMap((feats / scale).reshape(2**n, N)),
        coefficients=coefficients,
        rounded_net=rounded,
        rounding_bound=R * np.sqrt(k) * delta * n,
        coefficient_bound=scale * float(np.linalg.norm(u)),
    )
