"""Boolean +-1 functions as explicit truth tables, with exact inner products.

The canonical enumeration of {+-1}^n is lexicographic with +1 first: index i
has coordinate t equal to +1 when bit (n-1-t) of i is 0.  Tables are int8
and always aligned to this order, so on the full enumeration a function
is its table row: a single function is one int8 row of length 2^n, and a
family of d functions is one (d, 2^n) int8 matrix whose row j is member
j's table.  ``BooleanFn`` is the validated record of one row with its
arity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BooleanFn",
    "enumerate_signs",
    "sign_index",
    "on_support",
    "parity_fn",
    "parity_family",
    "or_parity_fn",
    "inner_product",
]


def enumerate_signs(n: int) -> np.ndarray:
    """All of {+-1}^n in canonical order, shape (2^n, n), int8."""
    if n < 1 or n > 24:
        raise ValueError("sign enumeration supported for 1 <= n <= 24")
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def sign_index(X: np.ndarray) -> np.ndarray:
    """Canonical enumeration index of each +-1 row of X."""
    X = np.asarray(X)
    n = X.shape[1]
    bits = (X < 0).astype(np.int64)
    return bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))


def on_support(tables, dist) -> np.ndarray:
    """The (d, 2^n) table matrix, refused unless ``dist`` is its full
    canonical enumeration (the only support its columns line up with)."""
    tables = np.asarray(tables)
    if tables.ndim != 2 or not dist.is_full_enumeration or tables.shape[1] != dist.n_points:
        raise ValueError(f"a family of {tables.shape} tables needs the full enumeration "
                         f"of its 2^n points, not a {dist.kind} support of {dist.n_points}")
    return tables


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


def parity_fn(I, n: int) -> np.ndarray:
    """Parity over the coordinate subset I, the product of x_t for t in I,
    as its int8 table row."""
    I = sorted(set(I))
    if any(t < 0 or t >= n for t in I):
        raise ValueError("subset out of range")
    X = enumerate_signs(n)
    table = np.ones(2**n, dtype=np.int8)
    for t in I:
        table *= X[:, t]
    return table


def parity_family(n: int) -> np.ndarray:
    """All 2^n parity tables as one read-only (2^n, 2^n) int8 matrix.

    Row k is the parity over {t : bit t of k}; row 0 is the constant +1
    parity.  The matrix fills by doubling: rows 2^t .. 2^(t+1)-1 are rows
    0 .. 2^t-1 times x_t.
    """
    X = enumerate_signs(n)
    tables = np.empty((2**n, 2**n), dtype=np.int8)
    tables[0] = 1
    for t in range(n):
        np.multiply(tables[: 2**t], X[:, t], out=tables[2**t : 2 ** (t + 1)])
    tables.flags.writeable = False
    return tables


def or_parity_fn(z_prime, n: int) -> np.ndarray:
    """Product over {t : z'_t = +1} of (x_t OR z_t), on pairs (x, z), as its
    int8 table row.

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
    return table


def inner_product(f, g, dist) -> float:
    """Signed expectation E[f(x) g(x)] of two table rows under the full
    enumeration of {+-1}^n.

    Exact: the sum of +-1 products is an integer and the uniform weight is
    dyadic.  Rows of different lengths, and any other support, are
    refused, since the tables line up with no other.
    """
    if len(f) != len(g):
        raise ValueError(f"table length mismatch: {len(f)} vs {len(g)}")
    f_vals, g_vals = on_support([f, g], dist)
    return float(np.dot(dist.weights, f_vals.astype(np.float64) * g_vals))
