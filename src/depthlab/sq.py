"""Statistical-query simulator: oracles, dimension certificates, games.

Queries are callables q(X, y) -> values in [-1,1], evaluated on the whole
enumerated support at once, or blocks of correlation queries y * h_j(x)
given as one row of values per h_j.  The honest oracle answers the true
expectation plus seeded uniform noise in [-tau, tau]; the adversarial
oracle answers every query with its label-agnostic expectation and records
what it needs to prune the family afterwards, exactly as the lower-bound
argument plays it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFn, sign_index

__all__ = [
    "QueryBudgetError",
    "SqOracle",
    "HonestNoisyOracle",
    "AdversarialOracle",
    "SqDimCertificate",
    "certify_sqdim",
    "certify_from_gram",
    "f_family_gram",
    "hoeffding_zset",
    "correlation_weak_learner",
    "adversarial_game",
    "GameResult",
    "correlation_count_check",
    "make_correlation_learner",
    "make_random_query_learner",
    "make_majority_learner",
]

_BLOCK_FLOATS = 2**17  # float64 entries (1 MiB) per family product block: L2 sized
_GRAM_BLOCK = 512  # family rows per certify_sqdim gram block
_ZSET_MAX_BATCHES = 64  # resampled batches before hoeffding_zset gives up


class QueryBudgetError(RuntimeError):
    """The oracle's query budget is exhausted."""


def family_values(family, dist) -> np.ndarray:
    """(d, m) int8 matrix of family values on the distribution support."""
    # np.array builds the matrix in one C pass; np.stack costs ~2x as much
    if dist.is_full_enumeration and dist.n_points == family[0].table.shape[0]:
        return np.array([f.table for f in family])
    idx = sign_index(dist.points)
    return np.array([f.table[idx] for f in family])


def _family_product(values: np.ndarray, V: np.ndarray) -> np.ndarray:
    """values @ V (V a vector or a few columns) in float64 row blocks.

    Exact for +-1 values against dyadic V, whatever the summation order.
    """
    out = np.empty(values.shape[:1] + V.shape[1:])
    rows = max(1, _BLOCK_FLOATS // values.shape[1])
    for k in range(0, values.shape[0], rows):
        out[k : k + rows] = values[k : k + rows].astype(np.float64) @ V
    return out


class SqOracle:
    """Base oracle: enumerated support, tolerance, budget, answer log."""

    def __init__(self, dist, tau: float, budget: int | None = None):
        if not 0 < tau < 1:
            raise ValueError("tau must lie in (0,1)")
        self.dist = dist
        self.tau = tau
        self.budget = budget
        self.log: list[float] = []  # answers in query order
        self._X = dist.points_float()
        self._ones = np.ones(dist.n_points)
        self._ones.flags.writeable = False

    @property
    def queries_used(self) -> int:
        return len(self.log)

    @property
    def remaining_queries(self) -> int | None:
        return None if self.budget is None else self.budget - len(self.log)

    def _evaluate(self, q):
        plus = np.asarray(q(self._X, self._ones), dtype=np.float64)
        minus = np.asarray(q(self._X, -self._ones), dtype=np.float64)
        hi = max(np.max(np.abs(plus)), np.max(np.abs(minus)))
        if hi > 1.0 + 1e-12:
            raise ValueError(f"query value {hi} outside [-1,1]")
        return plus, minus

    def _spend(self, k: int) -> None:
        if self.budget is not None and len(self.log) + k > self.budget:
            raise QueryBudgetError(f"budget of {self.budget} queries exhausted")

    def query(self, q) -> float:
        self._spend(1)
        plus, minus = self._evaluate(q)
        answer = self._answer(plus, minus)
        self.log.append(answer)
        return answer

    def correlations(self, H) -> np.ndarray:
        """Answer the correlation queries q_j(x, y) = y * H[j, x] as one block.

        Row j of H holds h_j on the support.  The block counts as len(H)
        queries against the budget and is refused whole if it does not fit.
        For +-1 rows on dyadic weights the answers and the log equal those
        of len(H) sequential ``query`` calls bit for bit.
        """
        H = np.atleast_2d(H)
        if H.shape[1] != self.dist.n_points:
            raise ValueError(f"correlation rows must cover the {self.dist.n_points} "
                             f"support points, got {H.shape[1]}")
        self._spend(H.shape[0])
        hi = max(-float(H.min()), float(H.max())) if H.size else 0.0
        if hi > 1.0 + 1e-12:
            raise ValueError(f"query value {hi} outside [-1,1]")
        answers = self._correlation_answers(H)
        self.log.extend(answers.tolist())
        return answers

    def _answer(self, plus, minus) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _correlation_answers(self, H) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class HonestNoisyOracle(SqOracle):
    """True expectation of q(x, f(x)) plus uniform noise in [-tau, tau]."""

    def __init__(self, target: BooleanFn, dist, tau: float, seed: int,
                 budget: int | None = None):
        super().__init__(dist, tau, budget)
        self.target = target
        self._labels = target(dist.points)
        self._rng = np.random.default_rng(seed)

    def _true_from_parts(self, plus, minus):
        vals = np.where(self._labels > 0, plus, minus)
        return float(np.dot(self.dist.weights, vals))

    def _answer(self, plus, minus) -> float:
        return self._true_from_parts(plus, minus) + float(
            self._rng.uniform(-self.tau, self.tau)
        )

    def _correlation_answers(self, H) -> np.ndarray:
        # a size-k uniform draw consumes the stream as k scalar draws do
        truth = _family_product(H, self.dist.weights * self._labels)
        return truth + self._rng.uniform(-self.tau, self.tau, size=H.shape[0])

    def true_expectation(self, q) -> float:
        """Exact E[q(x, f(x))]; exposed for tests, never used to answer."""
        plus, minus = self._evaluate(q)
        return self._true_from_parts(plus, minus)


class AdversarialOracle(SqOracle):
    """Answers E over x and a uniform +-1 label, committing to no target.

    For each query the oracle records the weighted label-odd part w * gbar
    of q: E[q(x, f_i(x))] minus the answer equals <f_i, gbar>, so the
    members a query rules out (those farther than d^(-1/3) from the answer)
    follow from one family product over all recorded queries, which
    ``adversarial_game`` takes once the learner is done.
    """

    def __init__(self, family, dist, tau: float, budget: int | None = None):
        super().__init__(dist, tau, budget)
        self.family = list(family)
        self.values = family_values(self.family, dist)
        d = len(self.family)
        if tau < d ** (-1.0 / 3.0) - 1e-12:
            raise ValueError("adversarial policy needs tau >= d^(-1/3)")
        self.consistency_radius = d ** (-1.0 / 3.0)
        self.weighted_gbars: list[np.ndarray] = []  # w * gbar, in query order

    def _answer(self, plus, minus) -> float:
        w = self.dist.weights
        self.weighted_gbars.append(w * (0.5 * (plus - minus)))
        return float(np.dot(w, 0.5 * (plus + minus)))

    def _correlation_answers(self, H) -> np.ndarray:
        # y * h(x) has no label-even part: gbar = h and the answer is 0
        w = self.dist.weights
        self.weighted_gbars.extend(w * h for h in np.asarray(H, dtype=np.float64))
        return np.zeros(H.shape[0])


@dataclass(frozen=True)
class SqDimCertificate:
    size: int
    max_abs_inner: float
    passed: bool

    def __post_init__(self):
        if self.passed and not self.max_abs_inner < 1.0 / self.size:
            raise ValueError("pass flag contradicts the recorded maximum")


def certify_from_gram(abs_gram: np.ndarray) -> SqDimCertificate:
    """Certificate from a precomputed |inner product| matrix."""
    d = abs_gram.shape[0]
    off = abs_gram.copy()
    np.fill_diagonal(off, 0.0)
    mx = float(off.max()) if d > 1 else 0.0
    return SqDimCertificate(size=d, max_abs_inner=mx, passed=mx < 1.0 / d)


def certify_sqdim(family, dist) -> SqDimCertificate:
    """All pairwise |<f_i, f_j>| by enumeration; pass iff all < 1/d.

    Uniform-weight families with 2^n support use one float32 copy: the
    +-1 product sums are integers below 2^24, so the gram stays exact.
    """
    values = family_values(family, dist)
    d, m = values.shape
    w = dist.weights
    uniform = bool(np.all(w == w[0]))
    use_f32 = uniform and d * m > 2**26 and m < 2**24
    V = values.astype(np.float32 if use_f32 else np.float64)
    mx = 0.0
    for k in range(0, d, _GRAM_BLOCK):
        if uniform:
            block = V[k : k + _GRAM_BLOCK] @ V.T
            block = block.astype(np.float64) * float(w[0])
        else:
            block = (V[k : k + _GRAM_BLOCK] * w) @ V.T
        for r in range(block.shape[0]):
            block[r, k + r] = 0.0
        mx = max(mx, float(np.max(np.abs(block))))
    return SqDimCertificate(d, mx, mx < 1.0 / d)


def f_family_gram(zset: np.ndarray) -> np.ndarray:
    """Closed-form |gram| of the OR-parity family: (1/2)^hamming(z_i, z_j)."""
    Z = np.asarray(zset, dtype=np.int64)
    n = Z.shape[1]
    hamming = (n - Z @ Z.T) // 2
    G = 0.5 ** hamming.astype(np.float64)
    np.fill_diagonal(G, 1.0)
    return G


def hoeffding_zset(n: int, d: int, seed: int) -> np.ndarray:
    """d uniform sign vectors with all pairwise Hamming distances >= n/4.

    Whole batches are rejected and resampled until the condition holds
    (each batch succeeds with probability >= 1/2 at d <= 2^(n/12)).
    Deterministic given the seed.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > int(2 ** (n / 12.0)):
        raise ValueError(f"d = {d} exceeds the admissible 2^(n/12) = {2 ** (n / 12.0):.2f}")
    rng = np.random.default_rng(seed)
    for _ in range(_ZSET_MAX_BATCHES):
        Z = (rng.integers(0, 2, size=(d, n)) * 2 - 1).astype(np.int8)
        if d == 1:
            return Z
        hamming = (n - Z.astype(np.int64) @ Z.T.astype(np.int64)) // 2
        np.fill_diagonal(hamming, n)
        if hamming.min() >= n / 4.0:
            return Z
    raise RuntimeError(
        f"no admissible batch of {d} vectors after {_ZSET_MAX_BATCHES} resamples"
    )


def make_correlation_query(f: BooleanFn):
    cache = {}

    def q(X, y):
        key = id(X)
        if key not in cache:
            cache.clear()
            cache[key] = f(X)
        return y * cache[key]

    return q


def _best_correlated(oracle: SqOracle, members) -> BooleanFn:
    """Ask every member's correlation in one block; the best |answer| wins.

    Both correlation learners share this body rather than one calling the
    other, so calls to ``correlation_weak_learner`` stay the weak-learning
    runs alone (perfbench times and checks exactly those).
    """
    answers = oracle.correlations(family_values(members, oracle.dist))
    return members[int(np.argmax(np.abs(answers)))]


def correlation_weak_learner(oracle: SqOracle, family) -> BooleanFn:
    """One correlation query per family member, returning the best |answer|.

    Ties break to the lowest index.  The returned member's hinge loss
    against the realized target is at most 1 - (|answer| - tau).
    """
    return _best_correlated(oracle, family)


@dataclass
class GameResult:
    chosen_index: int
    loss: float
    inconsistent_counts: list[int]


def _hypothesis_values(h, dist) -> np.ndarray:
    if isinstance(h, BooleanFn):
        return h(dist.points)
    if callable(h):
        return np.asarray(h(dist.points_float()), dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (dist.n_points,):
        raise ValueError("hypothesis array must cover the support")
    return h


def adversarial_game(family, learner, budget: int, tau: float, dist) -> GameResult:
    """Play the query-answering adversary against ``learner``.

    The learner gets an oracle limited to ``budget`` queries and must
    return a hypothesis (a BooleanFn, a value array over the support, or
    a callable).  The adversary then picks a family member consistent
    with every answer whose correlation with the clipped hypothesis is
    below 2/sqrt(d), and returns it with the exact hinge loss.  The
    per-query consistency and the hypothesis correlations come from one
    family product with budget + 1 columns.

    A suitable member is guaranteed to exist for certified families when
    budget <= d^(1/3)/8 and tau >= d^(-1/3); outside that regime the
    selection may fail with an AssertionError.
    """
    d = len(family)
    oracle = AdversarialOracle(family, dist, tau, budget)
    h = learner(oracle)
    h_vals = _hypothesis_values(h, dist)
    h_clip = np.clip(h_vals, -1.0, 1.0)
    columns = oracle.weighted_gbars + [dist.weights * h_clip]
    corr = _family_product(oracle.values, np.stack(columns, axis=1))
    ruled_out = np.abs(corr[:, :-1]) > oracle.consistency_radius
    ok = ~ruled_out.any(axis=1) & (corr[:, -1] < 2.0 / np.sqrt(d))
    if not ok.any():
        raise AssertionError(
            "no consistent family member with low hypothesis correlation; "
            "this contradicts the query lower bound"
        )
    j = int(np.argmax(ok))
    labels = oracle.values[j].astype(np.float64)
    loss = float(np.dot(dist.weights, np.maximum(0.0, 1.0 - labels * h_vals)))
    return GameResult(j, loss, np.count_nonzero(ruled_out, axis=0).tolist())


def correlation_count_check(family, h, tau: float, dist,
                            certificate: SqDimCertificate | None = None) -> int:
    """Count members with |<f_j, h>| >= tau and assert the packing bound.

    Requires tau^2 > 1/d and a family with pairwise |inner product| below
    1/d (pass a certificate to skip recomputing the gram).
    """
    d = len(family)
    if tau**2 <= 1.0 / d:
        raise ValueError("need tau^2 > 1/d")
    if certificate is None:
        certificate = certify_sqdim(family, dist)
    if not certificate.passed or certificate.size != d:
        raise ValueError("family is not a certified almost-orthogonal set")
    values = family_values(family, dist)
    h_vals = np.clip(_hypothesis_values(h, dist), -1.0, 1.0)
    corr = _family_product(values, dist.weights * h_vals)
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
    """Spends the budget on random sign queries, then guesses a member."""

    def learner(oracle: SqOracle):
        rng = np.random.default_rng(seed)
        m = oracle.dist.n_points
        answers = []
        while oracle.remaining_queries != 0:
            table = rng.integers(0, 2, size=m) * 2.0 - 1.0
            flip = rng.integers(0, 2)

            def q(X, y, table=table, flip=flip):
                vals = table.copy()
                return vals * y if flip else vals

            try:
                answers.append(oracle.query(q))
            except QueryBudgetError:
                break
        pick = int(rng.integers(len(family)))
        return family[pick]

    return learner


def make_majority_learner():
    """One query for E[y], then the constant sign of the answer."""

    def learner(oracle: SqOracle):
        def q(X, y):
            return y

        try:
            bias = oracle.query(q)
        except QueryBudgetError:
            bias = 0.0
        value = 1.0 if bias >= 0 else -1.0
        return np.full(oracle.dist.n_points, value)

    return learner
