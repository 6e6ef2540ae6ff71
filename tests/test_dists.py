import numpy as np
import pytest

from depthlab.boolfn import or_parity_fn, parity_fn
from depthlab.dists import InputDistribution, induced_pair, uniform_cube, uniform_signs


def sign_index(X):
    """Canonical enumeration index of each +-1 row of X."""
    X = np.asarray(X)
    return (X < 0).astype(np.int64) @ (1 << np.arange(X.shape[1] - 1, -1, -1, dtype=np.int64))


def test_weights_sum_to_one_within_tolerance():
    for dist in (uniform_cube(grid=37), uniform_signs(7)):
        assert abs(dist.weights.sum() - 1.0) <= 1e-12


def test_bad_weights_rejected():
    pts = np.zeros((4, 1))
    with pytest.raises(ValueError):
        InputDistribution("uniform_cube", pts, np.full(4, 0.3))


def test_grid_is_midpoint_rule():
    dist = uniform_cube(grid=8)
    assert np.array_equal(dist.points[:, 0], (np.arange(8) + 0.5) / 8)
    # dyadic band edges are never support points
    assert not np.isin(dist.points[:, 0], np.arange(9) / 8).any()


def test_sign_enumeration_lists_each_point_once():
    dist = uniform_signs(6)
    assert dist.n_points == 64
    assert len({tuple(r) for r in dist.points.tolist()}) == 64
    assert dist.is_full_enumeration


def test_enumeration_cap():
    with pytest.raises(ValueError):
        uniform_signs(21)


def test_induced_pair_structure():
    n = 4
    Z = np.array([[1, 1, -1, -1], [-1, 1, 1, -1]], dtype=np.int8)
    dist = induced_pair(n, Z)
    assert dist.n_points == 2**n * 2
    assert dist.dim == 2 * n
    assert len({tuple(r) for r in dist.points.tolist()}) == dist.n_points
    # every (x, z^(j)) pair carries weight 1/(2^n d)
    assert np.all(dist.weights == 1.0 / (2**n * 2))
    # the x-marginal is uniform: an x-only parity keeps its mean
    vals = parity_fn([0], n)[sign_index(dist.points[:, :n])]
    assert float(np.dot(dist.weights, vals)) == 0.0


def test_induced_pair_expectation_matches_manual():
    n = 3
    Z = np.array([[1, 1, -1], [-1, 1, 1]], dtype=np.int8)
    dist = induced_pair(n, Z)
    # induced_pair is not the 2n-bit enumeration: gather the table explicitly
    table = or_parity_fn(Z[0], n).astype(np.float64)
    got = float(np.dot(dist.weights, table[sign_index(dist.points)]))
    # manual: average over x of the OR-parity at each fixed z
    from depthlab.boolfn import enumerate_signs
    X = enumerate_signs(n)
    manual = np.mean([
        table[sign_index(np.concatenate([X, np.tile(z, (2**n, 1))], axis=1))].mean() for z in Z
    ])
    assert got == pytest.approx(manual, abs=1e-15)


def test_points_are_frozen_and_read_as_float():
    # int8 sign points are read as a float64 copy, a float grid as itself
    dist = uniform_signs(5)
    with pytest.raises(ValueError):
        dist.points[0, 0] = 5
    a = dist.points_float()
    assert a.dtype == np.float64 and np.array_equal(a, dist.points)
    grid = uniform_cube(8)
    assert grid.points_float() is grid.points
