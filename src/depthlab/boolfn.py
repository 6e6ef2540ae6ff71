"""Boolean +-1 functions as explicit truth tables, with exact inner products.

The canonical enumeration of {+-1}^n is lexicographic with +1 first: index i
has coordinate t equal to +1 when bit (n-1-t) of i is 0.  Tables are int8
and always aligned to this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BooleanFn",
    "enumerate_signs",
    "sign_index",
    "parity_fn",
    "parity_family",
    "or_parity_fn",
    "or_parity_inner_closed_form",
    "inner_product",
]


def enumerate_signs(n: int) -> np.ndarray:
    """All of {+-1}^n in canonical order, shape (2^n, n), int8."""
    if n < 1 or n > 24:
        raise ValueError("sign enumeration supported for 1 <= n <= 24")
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


_index_cache: dict = {}


def sign_index(X: np.ndarray) -> np.ndarray:
    """Canonical enumeration index of each +-1 row of X.

    Read-only arrays (frozen distribution supports) are memoized by
    identity, which makes repeated truth-table lookups on the same
    support cheap.
    """
    X = np.asarray(X)
    cached = _index_cache.get(id(X))
    if cached is not None and cached[0] is X:
        return cached[1]
    n = X.shape[1]
    bits = (X < 0).astype(np.int64)
    idx = bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    if not X.flags.writeable:
        if len(_index_cache) > 8:
            _index_cache.clear()
        _index_cache[id(X)] = (X, idx)
    return idx


@dataclass(frozen=True)
class BooleanFn:
    """A +-1 valued function on {+-1}^arity stored as a full truth table."""

    arity: int
    table: np.ndarray  # int8, length 2^arity, entries in {-1, +1}

    def __post_init__(self):
        t = np.ascontiguousarray(self.table, dtype=np.int8)
        if t.shape != (2**self.arity,):
            raise ValueError(f"table length {t.shape} != 2^{self.arity}")
        if not np.all(np.abs(t) == 1):
            raise ValueError("table entries must be +-1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on rows of a +-1 matrix (vectorized)."""
        X = np.atleast_2d(np.asarray(X))
        if X.shape[1] != self.arity:
            raise ValueError(f"expected arity {self.arity}, got {X.shape[1]} columns")
        return self.table[sign_index(X)].astype(np.float64)


def parity_fn(I, n: int) -> BooleanFn:
    """Parity over the coordinate subset I: the product of x_t for t in I."""
    I = sorted(set(I))
    if any(t < 0 or t >= n for t in I):
        raise ValueError("subset out of range")
    X = enumerate_signs(n)
    table = np.ones(2**n, dtype=np.int8)
    for t in I:
        table *= X[:, t]
    return BooleanFn(n, table)


def parity_family(n: int) -> list[BooleanFn]:
    """All 2^n parity functions; member k is the parity over {t : bit t of k}.

    Index 0 is the constant +1 parity.  The tables fill one 2^n x 2^n
    matrix by doubling: rows 2^t .. 2^(t+1)-1 are rows 0 .. 2^t-1 times x_t.
    """
    X = enumerate_signs(n)
    tables = np.empty((2**n, 2**n), dtype=np.int8)
    tables[0] = 1
    for t in range(n):
        np.multiply(tables[: 2**t], X[:, t], out=tables[2**t : 2 ** (t + 1)])
    return [BooleanFn(n, row) for row in tables]


def or_parity_fn(z_prime, n: int) -> BooleanFn:
    """Product over {t : z'_t = +1} of (x_t OR z_t), on pairs (x, z).

    The table has arity 2n; the input is the concatenation (x, z) and the
    OR of two signs is their max.
    """
    z_prime = np.asarray(z_prime, dtype=np.int8)
    if z_prime.shape != (n,) or not np.all(np.abs(z_prime) == 1):
        raise ValueError("z' must be a +-1 vector of length n")
    U = enumerate_signs(2 * n)
    x, z = U[:, :n], U[:, n:]
    table = np.ones(2 ** (2 * n), dtype=np.int8)
    for t in range(n):
        if z_prime[t] == 1:
            table *= np.maximum(x[:, t], z[:, t])
    return BooleanFn(2 * n, table)


def or_parity_inner_closed_form(z1, z2) -> float:
    """Uniform-pair correlation of two OR-parity functions: (1/2)^hamming.

    The exponent is the number of coordinates where the two selector
    vectors differ.
    """
    z1 = np.asarray(z1)
    z2 = np.asarray(z2)
    return 0.5 ** int(np.count_nonzero(z1 != z2))


def inner_product(f: BooleanFn, g: BooleanFn, dist) -> float:
    """Signed expectation E[f(x) g(x)] under an enumerable distribution.

    Exact for sign enumerations (the sum of +-1 products is an integer and
    the uniform weight is dyadic).
    """
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    if dist.n_points == f.table.shape[0] and dist.is_full_enumeration:
        prod = f.table.astype(np.float64) * g.table
        return float(np.dot(dist.weights, prod))
    idx = sign_index(dist.points)
    prod = f.table[idx].astype(np.float64) * g.table[idx]
    return float(np.dot(dist.weights, prod))
