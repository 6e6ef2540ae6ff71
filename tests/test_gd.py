import os
import tracemalloc

import numpy as np
import pytest

from depthlab import gd, mlp
from depthlab.constructions import TelgarskyTarget, telgarsky_target
from depthlab.dists import uniform_cube, InputDistribution
from depthlab.gd import CELL_MIN_GRID, GdConfig, GdDivergence, gd_train
from depthlab.mlp import Mlp, population_hinge_grad, xavier_init
from conftest import report_bytes_by_blas_threads


def two_point_dist():
    pts = np.array([[-1.0], [1.0]])
    return InputDistribution("two_point", pts)


def sign_target(X):
    return np.where(X[:, 0] >= 0, 1.0, -1.0)


def test_zero_step_is_identity():
    dist = uniform_cube(grid=32)
    net = xavier_init(3, 8, 1, seed=2)
    traj = gd_train(net, lambda X: np.ones(len(X)), dist, GdConfig(eta=0.0, iters=5))
    # one record per iterate, the initial one included
    assert np.array_equal(traj.iters, np.arange(6))
    assert traj.loss.shape == traj.grad_norm.shape == traj.param_dist.shape == (6,)
    assert traj.loss[0] == traj.loss[-1]
    assert np.all(traj.param_dist == 0.0)
    assert all(
        np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
        for (Wa, ba), (Wb, bb) in zip(net.layers, traj.final_net.layers)
    )


def test_separable_affine_reaches_low_loss():
    # single affine layer on x = -1 / +1 labeled by sign
    net = Mlp([(np.array([[0.0]]), np.array([0.0]))])
    traj = gd_train(net, sign_target, two_point_dist(), GdConfig(eta=0.1, iters=200))
    assert traj.loss[-1] < 0.1

    # closed-form oracle for this symmetric instance: b stays 0 and
    # w_{t+1} = w_t + eta while the margin w_t is <= 1, so
    # L_t = max(0, 1 - w_t) with w_t = min(0.1 t, 1.1)
    w = 0.0
    for t in range(200):
        expected = max(0.0, 1.0 - w)
        assert traj.loss[t] == pytest.approx(expected, abs=1e-12)
        if w <= 1.0:
            w += 0.1
    assert traj.loss[-1] == 0.0


def test_divergence_aborts_with_diagnostic():
    net = xavier_init(3, 8, 1, seed=0)
    dist = uniform_cube(grid=16)
    target = lambda X: np.ones(len(X))
    with pytest.raises(GdDivergence):
        gd_train(net, target, dist, GdConfig(eta=1e300, iters=50))


def rebuild_per_step(net, grad, cfg):
    """GD as a net per step: theta <- theta - eta * g, each iterate a new
    net over a new vector; (loss, grad norm, param dist, final params)."""
    theta0 = theta = net.flat_params()
    current, loss, gnorm, pdist = net, [], [], []
    for t in range(cfg.iters + 1):
        l, g = grad(current)
        loss.append(l)
        gnorm.append(mlp.l2_norm(g))
        pdist.append(mlp.l2_norm(theta - theta0))
        if t < cfg.iters:
            theta = theta - cfg.eta * g
            current = net.with_flat_params(theta)
    return np.array(loss), np.array(gnorm), np.array(pdist), theta


@pytest.mark.parametrize("target, grid, depth, iters", [
    (telgarsky_target(2), 64, 12, 200),  # gd-sanity's shape: the dense path
    (telgarsky_target(6), CELL_MIN_GRID, 6, 50),  # the moment rows
])
def test_in_place_steps_match_a_net_per_step(target, grid, depth, iters):
    dist = uniform_cube(grid=grid)
    net = xavier_init(depth, 32, 1, seed=4)
    theta0 = net.flat_params().copy()
    cfg = GdConfig(eta=0.1, iters=iters)
    traj = gd_train(net, target, dist, cfg)
    if grid < CELL_MIN_GRID:
        grad = lambda m: population_hinge_grad(m, target, dist)
    else:
        grad = gd._moment_grad(target, dist)
    loss, gnorm, pdist, theta = rebuild_per_step(net, grad, cfg)
    assert np.array_equal(traj.loss, loss)
    assert np.array_equal(traj.grad_norm, gnorm)
    assert np.array_equal(traj.param_dist, pdist)
    assert np.array_equal(traj.final_net.flat_params(), theta)
    # the input net is untouched, and the returned net is the run's own copy
    assert np.array_equal(net.flat_params(), theta0)
    assert traj.final_net is not net and pdist[-1] > 0.0
    assert gd_train(net, target, dist, GdConfig(eta=0.0, iters=2)).final_net is net


def test_config_validation():
    with pytest.raises(ValueError):
        GdConfig(eta=-1.0, iters=10)
    with pytest.raises(ValueError):
        GdConfig(eta=0.1, iters=0)


def rows_fed(monkeypatch):
    """Record the row count of every gradient gd_train takes: the grid's
    points on the dense path, the cells' moment rows on the wave.  Both
    paths run their passes through ``mlp._Backprop.grad_rows``."""
    rows = []
    grad_rows = mlp._Backprop.grad_rows

    def recording(self, net, X, loss_and_dout):
        rows.append(X.shape[0])
        return grad_rows(self, net, X, loss_and_dout)

    monkeypatch.setattr(mlp._Backprop, "grad_rows", recording)
    return rows


@pytest.mark.parametrize("target, grid, depth, width, iters", [
    (lambda X: telgarsky_target(4)(X), 4 * CELL_MIN_GRID, 6, 16, 8),  # not the wave itself
    (telgarsky_target(2), 64, 6, 16, 8),                              # below CELL_MIN_GRID
    (telgarsky_target(11), CELL_MIN_GRID, 6, 16, 8),                  # fewer points than bands
    # gd-sanity's shape, long enough for its chaos to turn any one changed
    # rounding into a different trajectory
    (telgarsky_target(2), 64, 12, 32, 400),
], ids=["<lambda>-4096", "target1-64", "target2-1024", "gd-sanity-shape-400"])
def test_dense_fallback_is_bit_identical(monkeypatch, target, grid, depth, width, iters):
    rows = rows_fed(monkeypatch)
    dist = uniform_cube(grid=grid)
    net = xavier_init(depth, width, 1, seed=3)
    cfg = GdConfig(eta=0.1, iters=iters)
    traj = gd_train(net, target, dist, cfg)
    assert rows == [grid] * (cfg.iters + 1)
    dense = lambda m: population_hinge_grad(m, target, dist)
    loss, gnorm, pdist, _ = rebuild_per_step(net, dense, cfg)
    assert traj.loss.tobytes() == loss.tobytes()
    assert traj.grad_norm.tobytes() == gnorm.tobytes()
    assert traj.param_dist.tobytes() == pdist.tobytes()


@pytest.mark.parametrize("grid", [64, 49, 1000, 9000])
def test_dense_run_records_the_population_loss(grid):
    """A dense-path run's recorded loss is ``population_hinge_loss`` of its
    final net bit for bit: both are the mean of the same hinge values, on
    one row block or (9,000 points) on two.  Wrapping the wave in a lambda
    keeps the grids of CELL_MIN_GRID points and more on the dense path."""
    dist = uniform_cube(grid=grid)
    wave = telgarsky_target(8)
    target = lambda X: wave(X)
    net = xavier_init(8, 32, 1, seed=3, bias_std=1.0)
    traj = gd_train(net, target, dist, GdConfig(eta=0.1, iters=50))
    assert traj.loss[-1] == mlp.population_hinge_loss(traj.final_net, target, dist)


def assert_cells_track_dense(monkeypatch, n, iters):
    """gd_train on the wave takes its gradients from the cells' moment
    rows; the loss series stays within 1e-12 of the dense run's and the
    grad norms within 1e-11 relative.  Wrapping the wave in a lambda
    forces the dense path."""
    rows = rows_fed(monkeypatch)
    grid = 2 ** (n + 4)
    dist = uniform_cube(grid=grid)
    net = xavier_init(n, 32, 1, seed=n)
    target = telgarsky_target(n)
    cfg = GdConfig(eta=0.1, iters=iters)
    fast = gd_train(net, target, dist, cfg)
    assert len(rows) == iters + 1 and 4 * max(rows) < grid
    dense = gd_train(net, lambda X: target(X), dist, cfg)
    assert np.max(np.abs(fast.loss - dense.loss)) <= 1e-12
    assert np.max(np.abs(fast.grad_norm - dense.grad_norm) / dense.grad_norm) <= 1e-11


def test_cells_track_dense_trajectory(monkeypatch):
    assert_cells_track_dense(monkeypatch, 8, 20)


@pytest.mark.slow
def test_cells_track_dense_trajectory_n12(monkeypatch):
    assert_cells_track_dense(monkeypatch, 12, 100)


@pytest.mark.parametrize("depth, width", [
    (6, 16),
    pytest.param(16, 32, marks=pytest.mark.slow),  # gd-flatline's shape at n = 16
])
def test_moment_gradient_tracks_dense_on_the_n16_grid(depth, width):
    """At n = 16 the dense gradient over the 2^20-point grid streams its
    rows in blocks (one pass over all rows would hold ~5 GiB at depth 16),
    so one moment-path gradient is checked against it, within
    ``assert_cells_track_dense``'s tolerances."""
    n = 16
    dist = uniform_cube(grid=2 ** (n + 4))
    target = telgarsky_target(n)
    net = xavier_init(depth, width, 1, seed=n, bias_std=1.0)
    loss, g = gd._moment_grad(target, dist)(net)
    dense_loss, dense_g = population_hinge_grad(net, target, dist)
    assert abs(loss - dense_loss) <= 1e-12
    assert mlp.l2_norm(g - dense_g) <= 1e-11 * mlp.l2_norm(dense_g)


def direct_prefix(n, dist):
    """The label prefix sums P0, P1 summed directly from the wave's labels."""
    y = telgarsky_target(n)(dist.points).astype(np.int64)
    odd = 2 * np.arange(dist.n_points) + 1
    return np.concatenate([[0], np.cumsum(y)]), np.concatenate([[0], np.cumsum(y * odd)])


def assert_prefix_is_direct(n, grid):
    """gd's band-edge prefix sums, read at every bound 0..grid, equal the
    direct ones."""
    dist = uniform_cube(grid=grid)
    P0, P1 = gd._label_prefix(dist.points[:, 0], n)(np.arange(grid + 1))
    D0, D1 = direct_prefix(n, dist)
    assert P0.dtype == P1.dtype == np.int64
    assert np.array_equal(P0, D0) and np.array_equal(P1, D1)


def test_label_moments_are_direct_sums():
    dist = uniform_cube(grid=1000)
    y = telgarsky_target(7)(dist.points)
    P0, P1 = gd._label_prefix(dist.points[:, 0], 7)(np.arange(1001))
    assert P0.dtype == P1.dtype == np.int64 and P0.shape == P1.shape == (1001,)
    for j in (0, 1, 62, 500, 999, 1000):
        assert P0[j] == sum(int(y[i]) for i in range(j))
        assert P1[j] == sum(int(y[i]) * (2 * i + 1) for i in range(j))
    # every n up to 14, on grids of 2^n points upwards (the experiments
    # refuse fewer points than bands), dyadic or not
    for n in range(1, 15):
        for grid in (2**n, 2 ** (n + 4), 1000, 1025, 3001, 5 * 2**n + 3):
            assert_prefix_is_direct(n, min(max(grid, 2**n), 2**20))


@pytest.mark.parametrize("n", [10, 12])
def test_label_prefix_on_grid_points_at_band_edges(monkeypatch, n):
    # on 3 * 2^(n-1) points, x_i = (2i+1)/(3 * 2^n) is the edge k/2^n for
    # every odd k: 2^(n-1) grid points open the band they lie on
    grid = 3 * 2 ** (n - 1)
    x = uniform_cube(grid=grid).points[:, 0]
    assert np.count_nonzero(np.isin(x, np.arange(2**n + 1) * 2.0**-n)) == 2 ** (n - 1)
    assert_prefix_is_direct(n, grid)
    # band starts searched with side right give each such point to the
    # band it closes, and the sums no longer match
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, side="left": search(a, v, side="right"))
    with pytest.raises(AssertionError):
        assert_prefix_is_direct(n, grid)


def test_moment_path_never_evaluates_the_wave(monkeypatch):
    def refuse(self, X):
        raise AssertionError("the wave was evaluated on the grid")

    monkeypatch.setattr(TelgarskyTarget, "__call__", refuse)
    traj = gd_train(xavier_init(12, 32, 1, seed=0, bias_std=1.0), telgarsky_target(12),
                    uniform_cube(grid=2**16), GdConfig(eta=0.1, iters=2))
    assert np.isfinite(traj.loss).all()


def test_moment_path_holds_no_grid_sized_label_arrays():
    """At n = 16 the 2^20-point grid's labels and each of their prefix sums
    take 8 MiB; the band-edge sums keep O(2^16) state, and gd_train's traced
    peak stays under 8 MiB."""
    dist = uniform_cube(grid=2**20)
    net = xavier_init(16, 32, 1, seed=0)
    tracemalloc.start()
    try:
        gd_train(net, telgarsky_target(16), dist, GdConfig(eta=0.1, iters=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


def test_zero_bias_gradient_takes_a_handful_of_rows(monkeypatch):
    """A zero-bias net is linear on [0, 1], with no kink inside it and at
    most one +-1 crossing, so its gradient at n = 12 takes at most 8 rows
    of the 65,536-point grid, the 4,096 bands notwithstanding."""
    rows = rows_fed(monkeypatch)
    gd_train(xavier_init(12, 32, 1, seed=0), telgarsky_target(12), uniform_cube(grid=2**16),
             GdConfig(eta=0.1, iters=2))
    assert len(rows) == 3 and max(rows) <= 8


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
def test_flatline_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """gd-flatline at n = 12 (depth 12, width 32: 10,657 parameters, enough
    for OpenBLAS to split a dot product) writes the same bytes whether BLAS
    runs on one thread or two."""
    outputs = report_bytes_by_blas_threads(tmp_path, "gd-flatline", {"n": 12, "iters": 5})
    assert outputs[0] == outputs[1]
