import numpy as np
import pytest

from depthlab.boolfn import (
    BooleanFn,
    ParityFamily,
    enumerate_signs,
    family_product,
    inner_product,
    parity_family,
    parity_fn,
)
from depthlab.sq import f_family_gram


def sign_index(X):
    """Canonical enumeration index of each +-1 row of X."""
    X = np.asarray(X)
    return (X < 0).astype(np.int64) @ (1 << np.arange(X.shape[1] - 1, -1, -1, dtype=np.int64))


def test_enumeration_order_and_index_roundtrip():
    X = enumerate_signs(4)
    assert np.all(X[0] == 1)
    assert np.all(X[-1] == -1)
    assert np.array_equal(sign_index(X), np.arange(16))


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFn(2, np.array([1, 1, 0, -1], dtype=np.int8))
    with pytest.raises(ValueError):
        BooleanFn(2, np.ones(3, dtype=np.int8))


def test_self_inner_product_is_one():
    f = parity_fn([0, 3], 5)
    assert inner_product(f, f) == 1.0


def test_distinct_parities_orthogonal():
    assert inner_product(parity_fn([0], 6), parity_fn([0, 1], 6)) == 0.0
    assert inner_product(parity_fn([2], 6), parity_fn([4], 6)) == 0.0


def test_arity_mismatch():
    with pytest.raises(ValueError):
        inner_product(parity_fn([0], 4), parity_fn([0], 5))


def test_parity_family_indexing():
    fam = parity_family(3)
    assert len(fam) == 8
    assert np.all(fam[0] == 1)  # empty subset: constant +1
    X = enumerate_signs(3).astype(np.float64)
    assert np.array_equal(fam[0b101], X[:, 0] * X[:, 2])


@pytest.mark.parametrize("n", [*range(1, 9), 12])
def test_parity_family_member_k_is_parity_of_subset_k(n):
    fam = parity_family(n)
    table = fam[:]
    assert table.dtype == np.int8 and table.shape == (2**n, 2**n)
    assert np.all(np.abs(table) == 1)
    rows = range(2**n)
    if n > 8:  # every row costs a parity_fn build: check the ends and a seeded sample
        rng = np.random.default_rng(n)
        rows = [0, 1, 2 ** (n - 1), 2**n - 1, *rng.integers(2**n, size=60).tolist()]
    for k in rows:
        subset = [t for t in range(n) if (k >> t) & 1]
        assert np.array_equal(fam[k], parity_fn(subset, n))


def _doubling_fill(n):
    """The parity matrix filled by doubling from an independently built
    enumeration: rows 2^t .. 2^(t+1)-1 are rows 0 .. 2^t-1 times x_t."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    X = (1 - 2 * bits).astype(np.int8)
    tables = np.empty((2**n, 2**n), dtype=np.int8)
    tables[0] = 1
    for t in range(n):
        np.multiply(tables[: 2**t], X[:, t], out=tables[2**t : 2 ** (t + 1)])
    return tables


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_operator_matches_the_dense_matrix(n):
    fam, rng = ParityFamily(n), np.random.default_rng(100 + n)
    m = 2**n
    table = fam[:]
    assert table.dtype == np.int8
    assert np.array_equal(table, _doubling_fill(n))
    assert len(fam) == m and fam.shape == (m, m)
    # dyadic columns (weights times +-1 and +-1/2 values): exact on both paths
    for shape in [(m,), (m, 1), (m, 3)]:
        V = rng.integers(-2, 3, size=shape) / (2.0 * m)
        fast, dense = fam.product(V), family_product(table, V)
        assert fast.shape == dense.shape == shape
        assert fast.tobytes() == dense.tobytes()
        assert family_product(fam, V).tobytes() == fast.tobytes()
    V = rng.uniform(-1.0, 1.0, size=(m, 3))
    err = np.abs(fam.product(V) - family_product(table, V))
    assert np.all(err <= 1e-15 * np.abs(V).sum(axis=0))
    j = int(rng.integers(m))
    a, b = sorted(rng.integers(m + 1, size=2))
    idx = rng.integers(m, size=5)
    assert np.array_equal(fam[j], table[j]) and fam[j].dtype == np.int8
    assert np.array_equal(fam[-1], table[-1])
    assert np.array_equal(fam[a:b], table[a:b]) and fam[a:b].shape == (b - a, m)
    assert np.array_equal(fam[idx], table[idx])
    assert np.array_equal(fam[list(idx)], table[idx])


def _masked_multiply_rows(n, key):
    """Parity rows built coordinate by coordinate: row k is the all-ones
    row multiplied by x_t wherever bit t of k is set."""
    idx = np.arange(2**n)[key]
    sel = np.reshape(idx, (-1, 1))
    rows = np.ones((sel.shape[0], 2**n), dtype=np.int8)
    X = enumerate_signs(n)
    for t in range(n):
        np.multiply(rows, X[:, t], out=rows, where=((sel >> t) & 1).astype(bool))
    return rows[0] if np.ndim(idx) == 0 else rows


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_rows_match_the_masked_multiply(n):
    fam, m, rng = ParityFamily(n), 2**n, np.random.default_rng(300 + n)
    keys = [0, m - 1, -1, -m, int(rng.integers(m)), slice(None), slice(None, None, -1),
            slice(1, None, 3), slice(m - 1, 0, -2), slice(0, 0),
            rng.integers(m, size=7), rng.integers(-m, m, size=(2, 3)),
            rng.integers(m, size=7).tolist(), rng.random(m) < 0.3]
    for key in keys:
        got, want = fam[key], _masked_multiply_rows(n, key)
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_parity_operator_refuses_bad_input():
    fam = ParityFamily(4)
    with pytest.raises(ValueError):
        fam.product(np.ones(8))
    with pytest.raises(IndexError):
        fam[16]
    for n in (0, 25):
        with pytest.raises(ValueError):
            ParityFamily(n)


def test_or_parity_hamming_exponent():
    z1 = np.array([1, 1, -1, 1], dtype=np.int8)
    z2 = np.array([1, -1, -1, -1], dtype=np.int8)
    assert f_family_gram(np.stack([z1, z2]))[0, 1] == 0.25
