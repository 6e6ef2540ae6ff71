"""Boolean +-1 functions as explicit truth tables, and the parity family
as an operator.

The canonical enumeration of {+-1}^n is lexicographic with +1 first: index i
has coordinate t equal to +1 when bit (n-1-t) of i is 0.  Tables are int8
and always aligned to this order, so on the full enumeration a function
is its table row: a single function is one int8 row of length 2^n, and a
family of d functions is one (d, 2^n) int8 matrix whose row j is member
j's table.  ``BooleanFn`` is the validated record of one row with its
arity.  A family is its own support: its m = 2^n table columns are the
points of the enumeration, each of weight 1/m, so nothing on the Boolean
side takes a distribution.

The 2^n parities are the one family that is never stored: ``ParityFamily``
holds only n.  Every family is read in exactly two ways: rows by index
(``F[idx]``), and ``family_product``, which multiplies the parities by a
fast Walsh-Hadamard transform in O(n 2^n) per column and any other
family, an explicit table matrix, by one float64 matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BooleanFn",
    "enumerate_signs",
    "parity_fn",
    "ParityFamily",
    "parity_family",
    "family_product",
    "or_parity_fn",
    "inner_product",
]


_MAX_BITS = 24  # largest n for a sign enumeration or a parity family


def _check_bits(n: int) -> None:
    if n < 1 or n > _MAX_BITS:
        raise ValueError(f"sign enumeration supported for 1 <= n <= {_MAX_BITS}")


def _coordinate(n: int, t: int) -> np.ndarray:
    """x_t at every point of the canonical enumeration of {+-1}^n, as an int8 row."""
    return (1 - 2 * ((np.arange(2**n) >> (n - 1 - t)) & 1)).astype(np.int8)


def enumerate_signs(n: int) -> np.ndarray:
    """All of {+-1}^n in canonical order, shape (2^n, n), int8."""
    _check_bits(n)
    return np.stack([_coordinate(n, t) for t in range(n)], axis=1)


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


def _bit_reversal(n: int) -> np.ndarray:
    """The permutation i -> i with its n bits in reverse order."""
    i = np.arange(2**n)
    rev = np.zeros_like(i)
    for t in range(n):
        rev |= ((i >> t) & 1) << (n - 1 - t)
    return rev


@dataclass(frozen=True)
class ParityFamily:
    """All 2^n parities on {+-1}^n as an operator that holds only n.

    Member k is the parity over {t : bit t of k}; member 0 is the constant
    +1 parity.  ``F[j]`` is member j's int8 row, and a slice, an index
    list or a mask gives the explicit (k, 2^n) int8 rows, built by doubling
    over the point bits; ``F[:]`` is the whole matrix.  Every other
    read is a ``product``.

    Entry (k, i) is (-1)^popcount(k & rev(i)), with rev the n-bit
    reversal, so F = H P: the Sylvester-Hadamard matrix H_n times the
    bit-reversal permutation of the points, and ``product`` is a fast
    Walsh-Hadamard transform.
    """

    n: int

    def __post_init__(self):
        _check_bits(self.n)

    def __len__(self) -> int:
        return 2**self.n

    @property
    def shape(self) -> tuple:
        return (len(self), len(self))

    def __getitem__(self, key) -> np.ndarray:
        idx = np.arange(len(self))[key]
        sel = np.reshape(idx, (-1, 1))
        # point bit j is coordinate n-1-j: each pass doubles the row length,
        # the upper half being the lower one times that coordinate's sign
        rows = np.ones((sel.shape[0], 1), dtype=np.int8)
        for j in range(self.n):
            sign = (1 - 2 * ((sel >> (self.n - 1 - j)) & 1)).astype(np.int8)
            rows = np.concatenate([rows, rows * sign], axis=1)
        return rows[0] if np.ndim(idx) == 0 else rows

    def product(self, V) -> np.ndarray:
        """F @ V for V a vector or (2^n, c) columns, in O(n 2^n) per column.

        F V = H (P V): the rows of V are put in bit-reversed order, then
        transformed in place by n butterfly passes.  Each intermediate is a
        signed sum of entries of V, so on dyadic V (multiples of 2^-k whose
        absolute sum stays below 2^(53-k)) every step is exact and the
        result equals the matmul bit for bit.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.shape[:1] != (len(self),):
            raise ValueError(f"product needs {len(self)} rows, got shape {V.shape}")
        out = V.reshape(len(self), -1)[_bit_reversal(self.n)]
        h = 1
        while h < len(self):
            pairs = out.reshape(-1, 2, h, out.shape[1])
            lo, hi = pairs[:, 0], pairs[:, 1]
            diff = lo - hi
            lo += hi
            hi[...] = diff
            h *= 2
        return out.reshape(V.shape)


def parity_family(n: int) -> ParityFamily:
    """All 2^n parities on {+-1}^n, as the operator that holds only n."""
    return ParityFamily(n)


def family_product(family, V) -> np.ndarray:
    """family @ V, V a vector or a few columns over the support: the one
    entry for every family product.

    A ``ParityFamily`` takes its fast Walsh-Hadamard product; an explicit
    (d, 2^n) table matrix is one float64 matmul.  Both are exact for +-1
    rows against dyadic V, whatever the summation order.
    """
    if isinstance(family, ParityFamily):
        return family.product(V)
    return family.astype(np.float64) @ V


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


def inner_product(f, g) -> float:
    """Signed expectation E[f(x) g(x)] of two table rows under the uniform
    distribution on {+-1}^n, the points their columns enumerate.

    Exact: the sum of +-1 products is an integer and the uniform weight is
    dyadic.  Rows of different lengths are refused.
    """
    if len(f) != len(g):
        raise ValueError(f"table length mismatch: {len(f)} vs {len(g)}")
    return float(np.add.reduce(np.asarray(f, dtype=np.float64) * g) / len(f))
