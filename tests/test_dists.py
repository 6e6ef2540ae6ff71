import tracemalloc

import numpy as np
import pytest

from depthlab.boolfn import or_parity_fn, parity_fn
from depthlab.dists import InputDistribution, induced_pair, uniform_cube, uniform_signs


def sign_index(X):
    """Canonical enumeration index of each +-1 row of X."""
    X = np.asarray(X)
    return (X < 0).astype(np.int64) @ (1 << np.arange(X.shape[1] - 1, -1, -1, dtype=np.int64))


def test_weights_sum_to_one_within_tolerance():
    # every support is uniform: one weight 1/m for each of its m points
    for dist in (uniform_cube(grid=37), uniform_signs(7)):
        assert dist.weight == 1 / dist.n_points
        assert abs(dist.weight * dist.n_points - 1.0) <= 1e-12


def test_only_the_sign_enumeration_is_full():
    Z = np.array([[1, -1, 1]], dtype=np.int8)
    assert uniform_signs(3).is_full_enumeration
    assert not uniform_cube(grid=8).is_full_enumeration
    assert not induced_pair(3, Z).is_full_enumeration
    assert not InputDistribution("point", np.zeros((1, 1))).is_full_enumeration


def test_grid_is_midpoint_rule():
    dist = uniform_cube(grid=8)
    assert np.array_equal(dist.points[:, 0], (np.arange(8) + 0.5) / 8)
    # dyadic band edges are never support points
    assert not np.isin(dist.points[:, 0], np.arange(9) / 8).any()


@pytest.mark.parametrize("grid", [1, 3, 49, 1000, 3001, 2**16])
def test_grid_built_in_place_is_the_midpoint_formula(grid):
    x = uniform_cube(grid).points
    assert x.shape == (grid, 1) and x.dtype == np.float64
    assert x.tobytes() == ((np.arange(grid) + 0.5) / grid).tobytes()


def test_grid_build_holds_one_grid_sized_array():
    # 2^20 float64 points are 8 MiB; a second grid-sized temporary would be 16
    tracemalloc.start()
    try:
        uniform_cube(2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


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
    assert dist.points.shape[1] == 2 * n
    assert len({tuple(r) for r in dist.points.tolist()}) == dist.n_points
    # every (x, z^(j)) pair carries weight 1/(2^n d)
    assert dist.weight == 1.0 / (2**n * 2)
    # the x-marginal is uniform: an x-only parity keeps its mean
    vals = parity_fn([0], n)[sign_index(dist.points[:, :n])]
    weights = np.full(dist.n_points, 1.0 / dist.n_points)
    assert float(np.dot(weights, vals)) == 0.0


def test_induced_pair_expectation_matches_manual():
    n = 3
    Z = np.array([[1, 1, -1], [-1, 1, 1]], dtype=np.int8)
    dist = induced_pair(n, Z)
    # induced_pair is not the 2n-bit enumeration: gather the table explicitly
    table = or_parity_fn(Z[0], n).astype(np.float64)
    weights = np.full(dist.n_points, 1.0 / dist.n_points)
    got = float(np.dot(weights, table[sign_index(dist.points)]))
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
