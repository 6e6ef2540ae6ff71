"""Statistical-query simulator: oracles, dimension certificates, games.

A family of d functions on {+-1}^n has one int8 table row per member in
the canonical enumeration, and it is its own support: the m = 2^n table
columns are the points, each of weight 1/m, so no function here takes a
distribution and an oracle holds only m.  The parity family is an
operator (``boolfn.ParityFamily``) that is never stored: its rows
come by index and every product with it is a fast Walsh-Hadamard
transform.  Any other family is an explicit (d, 2^n) table matrix.  Both
go through one product entry, ``boolfn.family_product``.

Since y = +-1, a bounded query q(x, y) on that support is exactly two
rows, q = even(x) + y * odd(x), and ``SqOracle.query(odd, even)`` is the
one entry: it answers a block of k queries given as (k, m) rows, and a
block with no even part is k correlation queries y * odd_j(x) (a family,
or some of its rows, for member correlations).  Each oracle answers the
rows through one hook, ``_answers(even, odd)``.  Learners return
hypotheses as value rows over the support.  The honest oracle answers the
true expectation plus seeded uniform noise in [-tau, tau]; the
adversarial oracle answers every query with its label-even part (the
expectation under a uniform label) and records the odd part to prune the
family afterwards, exactly as the lower-bound argument plays it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFn, ParityFamily, family_product

__all__ = [
    "QueryBudgetError",
    "SqOracle",
    "HonestNoisyOracle",
    "AdversarialOracle",
    "SqDimCertificate",
    "certify_sqdim",
    "certify_from_gram",
    "f_family_gram",
    "min_hamming",
    "hoeffding_zset",
    "zset_capacity",
    "correlation_weak_learner",
    "adversarial_game",
    "GameResult",
    "correlation_count_check",
    "make_correlation_learner",
    "make_random_query_learner",
    "make_majority_learner",
]

_GRAM_BLOCK = 512  # family rows per certify_sqdim gram block
_ZSET_MAX_BATCHES = 64  # resampled batches before hoeffding_zset gives up


class QueryBudgetError(RuntimeError):
    """The oracle's query budget is exhausted."""


class SqOracle:
    """Base oracle: support size m, tolerance, budget, answer log."""

    def __init__(self, m: int, tau: float, budget: int | None = None):
        if not 0 < tau < 1:
            raise ValueError("tau must lie in (0,1)")
        self.m = m
        self.tau = tau
        self.budget = budget
        self.log: list[float] = []  # answers in query order

    @property
    def remaining_queries(self) -> int | None:
        return None if self.budget is None else self.budget - len(self.log)

    def query(self, odd, even=None) -> np.ndarray:
        """Answer the queries q_j(x, y) = even[j, x] + y * odd[j, x] as one block.

        Row j of ``odd`` and of ``even`` holds query j on the support;
        ``even=None`` makes the block k correlation queries y * odd[j, x];
        ``odd`` may then be a whole ``ParityFamily``, which is never
        materialized.  The block counts as k queries against the budget
        and is refused whole if it does not fit; |q_j| <= 1 at both labels
        is |even| + |odd| <= 1, which the parities meet by construction.
        """
        parities = isinstance(odd, ParityFamily) and even is None
        if not parities:
            odd = np.atleast_2d(odd)
            even = None if even is None else np.atleast_2d(even)
        if odd.shape[1] != self.m or even is not None and even.shape != odd.shape:
            raise ValueError(f"odd and even rows must be alike and cover the "
                             f"{self.m} support points")
        if self.budget is not None and len(self.log) + len(odd) > self.budget:
            raise QueryBudgetError(f"budget of {self.budget} queries exhausted")
        if not parities:
            # min/max, not np.abs: an odd-only block may be many family rows
            span = odd if even is None else np.abs(even) + np.abs(odd)
            hi = max(-float(span.min()), float(span.max())) if odd.size else 0.0
            if hi > 1.0 + 1e-12:
                raise ValueError(f"query value {hi} outside [-1,1]")
        answers = self._answers(even, odd)
        self.log.extend(answers.tolist())
        return answers

    def _answers(self, even, odd) -> np.ndarray:  # pragma: no cover - abstract
        """One answer per (k, m) row of ``odd``; ``even`` is alike, or None for 0."""
        raise NotImplementedError


class HonestNoisyOracle(SqOracle):
    """True expectation of q(x, f(x)) plus uniform noise in [-tau, tau]; the
    labels are the target's table row, whose 2^arity points are the support."""

    def __init__(self, target: BooleanFn, tau: float, seed: int,
                 budget: int | None = None):
        super().__init__(len(target.table), tau, budget)
        self.target = target
        self._rng = np.random.default_rng(seed)

    def _answers(self, even, odd) -> np.ndarray:
        truth = family_product(odd, (1.0 / self.m) * self.target.table)
        if even is not None:
            truth += np.add.reduce(even, axis=1) / self.m
        # a size-k uniform draw consumes the stream as k scalar draws do
        return truth + self._rng.uniform(-self.tau, self.tau, size=len(odd))


class AdversarialOracle(SqOracle):
    """Answers E over x and a uniform +-1 label, committing to no target.

    That expectation is the query's label-even part.  For each query the
    oracle records the weighted label-odd part w * gbar of q: E[q(x,
    f_i(x))] minus the answer equals <f_i, gbar>, so the members a query
    rules out (those farther than d^(-1/3) from the answer) follow from
    one family product over all recorded queries, which
    ``adversarial_game`` takes once the learner is done.
    """

    def __init__(self, family, tau: float, budget: int | None = None):
        super().__init__(family.shape[1], tau, budget)
        self.values = family
        self.consistency_radius = len(self.values) ** (-1.0 / 3.0)
        if tau < self.consistency_radius - 1e-12:
            raise ValueError("adversarial policy needs tau >= d^(-1/3)")
        self.weighted_gbars: list[np.ndarray] = []  # w * gbar, in query order

    def _answers(self, even, odd) -> np.ndarray:
        w = 1.0 / self.m
        self.weighted_gbars.extend(w * g for g in np.asarray(odd, dtype=np.float64))
        return np.zeros(len(odd)) if even is None else \
            np.add.reduce(even, axis=1) / self.m


@dataclass(frozen=True)
class SqDimCertificate:
    size: int
    max_abs_inner: float

    @property
    def passed(self) -> bool:
        """Almost orthogonal: every pairwise |<f_i, f_j>| is below 1/d."""
        return self.max_abs_inner < 1.0 / self.size


def certify_from_gram(abs_gram: np.ndarray) -> SqDimCertificate:
    """Certificate from a precomputed |inner product| matrix."""
    d = abs_gram.shape[0]
    off = abs_gram.copy()
    np.fill_diagonal(off, 0.0)
    return SqDimCertificate(d, float(off.max()) if d > 1 else 0.0)


def certify_sqdim(family) -> SqDimCertificate:
    """All pairwise |<f_i, f_j>| by enumeration; pass iff all < 1/d.

    Every entry is computed (C6 and C8 at n <= 12), as the family product
    with blocks of the family's own rows: an integer sum of +-1 products
    times the uniform weight 2^-n, so the gram is exact on either path.
    """
    d, m = family.shape
    w = 1.0 / m
    mx = 0.0
    for k in range(0, d, _GRAM_BLOCK):
        block = family_product(family, family[k : k + _GRAM_BLOCK].astype(np.float64).T) * w
        for r in range(block.shape[1]):
            block[k + r, r] = 0.0
        mx = max(mx, float(np.max(np.abs(block))))
    return SqDimCertificate(d, mx)


def _hamming(Z) -> np.ndarray:
    """(d, d) int64 Hamming distances between the rows of a (d, n) +-1 matrix."""
    Z = np.asarray(Z, dtype=np.int64)
    return (Z.shape[1] - Z @ Z.T) // 2


def min_hamming(Z) -> int:
    """Least Hamming distance between two rows of a (d, n) +-1 matrix; n
    when there is one row."""
    Z = np.asarray(Z)
    H = _hamming(Z)
    np.fill_diagonal(H, Z.shape[1])
    return int(H.min())


def f_family_gram(zset: np.ndarray) -> np.ndarray:
    """Closed-form |gram| of the OR-parity family: (1/2)^hamming(z_i, z_j)."""
    return 0.5 ** _hamming(zset).astype(np.float64)


def zset_capacity(n: int) -> float:
    """The largest d that hoeffding_zset admits at length n: 2^(n/12),
    capped at 2^1000 so that it stays a float at any n."""
    return 2.0 ** min(n / 12.0, 1000.0)


def hoeffding_zset(n: int, d: int, seed: int) -> np.ndarray:
    """d uniform sign vectors with all pairwise Hamming distances >= n/4.

    Whole batches are rejected and resampled until the condition holds
    (each batch succeeds with probability >= 1/2 at d <= 2^(n/12)).
    Deterministic given the seed.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > zset_capacity(n):
        raise ValueError(f"d = {d} exceeds the admissible 2^(n/12) at n = {n}")
    rng = np.random.default_rng(seed)
    for _ in range(_ZSET_MAX_BATCHES):
        Z = (rng.integers(0, 2, size=(d, n)) * 2 - 1).astype(np.int8)
        if min_hamming(Z) >= n / 4.0:
            return Z
    raise RuntimeError(
        f"no admissible batch of {d} vectors after {_ZSET_MAX_BATCHES} resamples"
    )


def _best_correlated(oracle: SqOracle, members) -> np.ndarray:
    """Ask every member's correlation in one block; the best |answer| wins.

    Both correlation learners share this body rather than one calling the
    other, so calls to ``correlation_weak_learner`` stay the weak-learning
    runs alone (perfbench times and checks exactly those).
    """
    answers = oracle.query(members)
    return members[int(np.argmax(np.abs(answers)))]


def correlation_weak_learner(oracle: SqOracle, family) -> BooleanFn:
    """One correlation query per family member, returning the best |answer|.

    Ties break to the lowest index.  The returned member's hinge loss
    against the realized target is at most 1 - (|answer| - tau).  Its
    arity is log2 of the support size m; ``BooleanFn`` checks m = 2^arity.
    """
    return BooleanFn(oracle.m.bit_length() - 1, _best_correlated(oracle, family))


@dataclass
class GameResult:
    chosen_index: int
    loss: float
    inconsistent_counts: list[int]


def _hypothesis_values(h, m: int) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (m,):
        raise ValueError("hypothesis array must cover the support")
    return h


def adversarial_game(family, learner, budget: int, tau: float) -> GameResult:
    """Play the query-answering adversary against ``learner``.

    The learner gets an oracle limited to ``budget`` queries and must
    return a hypothesis as its values over the support (a family row is
    one).  The adversary then picks a family member consistent with every
    answer whose correlation with the clipped hypothesis is below
    2/sqrt(d), and returns it with the exact hinge loss.  The per-query
    consistency and the hypothesis correlations come from one family
    product with budget + 1 columns.

    A suitable member is guaranteed to exist for certified families when
    budget <= d^(1/3)/8 and tau >= d^(-1/3): there a failed selection is an
    AssertionError; above that budget, where the bound claims nothing, it
    is a ValueError.
    """
    d, m = family.shape
    oracle = AdversarialOracle(family, tau, budget)
    h = learner(oracle)
    h_vals = _hypothesis_values(h, m)
    h_clip = np.clip(h_vals, -1.0, 1.0)
    columns = oracle.weighted_gbars + [(1.0 / m) * h_clip]
    corr = family_product(oracle.values, np.stack(columns, axis=1))
    ruled_out = np.abs(corr[:, :-1]) > oracle.consistency_radius
    ok = ~ruled_out.any(axis=1) & (corr[:, -1] < 2.0 / np.sqrt(d))
    if not ok.any():
        if (8 * budget) ** 3 > d:  # budget > d^(1/3)/8, in integers
            raise ValueError(f"no consistent family member with low hypothesis correlation "
                             f"after budget = {budget} queries, above d^(1/3)/8 = "
                             f"{d ** (1 / 3) / 8:.6g}, where the lower bound claims nothing")
        raise AssertionError(
            "no consistent family member with low hypothesis correlation; "
            "this contradicts the query lower bound"
        )
    j = int(np.argmax(ok))
    labels = oracle.values[j].astype(np.float64)
    loss = float(np.add.reduce(np.maximum(0.0, 1.0 - labels * h_vals)) / m)
    return GameResult(j, loss, np.count_nonzero(ruled_out, axis=0).tolist())


def correlation_count_check(family, h, tau: float,
                            certificate: SqDimCertificate | None = None) -> int:
    """Count members with |<f_j, h>| >= tau and assert the packing bound.

    Requires tau^2 > 1/d and a family with pairwise |inner product| below
    1/d (pass a certificate to skip recomputing the gram).
    """
    d, m = family.shape
    if tau**2 <= 1.0 / d:
        raise ValueError("need tau^2 > 1/d")
    if certificate is None:
        certificate = certify_sqdim(family)
    if not certificate.passed or certificate.size != d:
        raise ValueError("family is not a certified almost-orthogonal set")
    h_vals = np.clip(_hypothesis_values(h, m), -1.0, 1.0)
    corr = family_product(family, (1.0 / m) * h_vals)
    count = int(np.count_nonzero(np.abs(corr) >= tau))
    bound = 2.0 / (tau**2 - 1.0 / d)
    if count > bound:
        raise AssertionError(f"correlation count {count} exceeds bound {bound}")
    return count


# --- learner strategies used by the lower-bound experiments ---------------

def make_correlation_learner(family):
    """Queries member correlations until the budget runs out."""

    def learner(oracle: SqOracle):
        k = len(family)
        if oracle.budget is not None:
            k = min(k, oracle.remaining_queries)
        return _best_correlated(oracle, family[:k]) if k > 0 else family[0]

    return learner


def make_random_query_learner(family, seed: int):
    """Spends the budget on random sign queries, then guesses a member.

    The oracle must have a budget: without one the learner would query forever.
    """

    def learner(oracle: SqOracle):
        if oracle.budget is None:
            raise ValueError("the random-query learner needs an oracle with a query budget")
        rng = np.random.default_rng(seed)
        m = oracle.m
        while oracle.remaining_queries != 0:
            table = rng.integers(0, 2, size=m) * 2.0 - 1.0
            if rng.integers(0, 2):  # q = y * table, else q = table
                oracle.query(table)
            else:
                oracle.query(np.zeros(m), table)
        return family[int(rng.integers(len(family)))]

    return learner


def make_majority_learner():
    """One query for E[y], then the constant sign of the answer."""

    def learner(oracle: SqOracle):
        try:
            bias = oracle.query(np.ones(oracle.m))[0]
        except QueryBudgetError:
            bias = 0.0
        value = 1.0 if bias >= 0 else -1.0
        return np.full(oracle.m, value)

    return learner
