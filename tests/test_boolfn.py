import numpy as np
import pytest

from depthlab.boolfn import (
    BooleanFn,
    enumerate_signs,
    inner_product,
    or_parity_fn,
    or_parity_inner_closed_form,
    parity_family,
    parity_fn,
    sign_index,
)
from depthlab.dists import uniform_signs


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
    dist = uniform_signs(5)
    f = parity_fn([0, 3], 5)
    assert inner_product(f, f, dist) == 1.0


def test_distinct_parities_orthogonal():
    dist = uniform_signs(6)
    assert inner_product(parity_fn([0], 6), parity_fn([0, 1], 6), dist) == 0.0
    assert inner_product(parity_fn([2], 6), parity_fn([4], 6), dist) == 0.0


def test_arity_mismatch():
    with pytest.raises(ValueError):
        inner_product(parity_fn([0], 4), parity_fn([0], 5), uniform_signs(4))


def test_parity_family_indexing():
    fam = parity_family(3)
    assert len(fam) == 8
    assert np.all(fam[0].table == 1)  # empty subset: constant +1
    X = enumerate_signs(3).astype(np.float64)
    assert np.array_equal(fam[0b101](X), X[:, 0] * X[:, 2])


@pytest.mark.parametrize("n", range(1, 9))
def test_parity_family_member_k_is_parity_of_subset_k(n):
    fam = parity_family(n)
    assert len(fam) == 2**n
    for k, f in enumerate(fam):
        subset = [t for t in range(n) if (k >> t) & 1]
        assert f.arity == n
        assert not f.table.flags.writeable
        assert np.array_equal(f.table, parity_fn(subset, n).table)


def test_or_parity_closed_form_matches_enumeration():
    n = 4
    dist = uniform_signs(2 * n)
    zs = enumerate_signs(n)
    rng = np.random.default_rng(0)
    for _ in range(12):
        i, j = rng.integers(2**n, size=2)
        ip = abs(inner_product(or_parity_fn(zs[i], n), or_parity_fn(zs[j], n), dist))
        assert ip == or_parity_inner_closed_form(zs[i], zs[j])


def test_or_parity_hamming_exponent():
    z1 = np.array([1, 1, -1, 1], dtype=np.int8)
    z2 = np.array([1, -1, -1, -1], dtype=np.int8)
    assert or_parity_inner_closed_form(z1, z2) == 0.25
