import os

import numpy as np
import pytest

from depthlab import boolfn
from depthlab.boolfn import parity_family
from depthlab.dists import uniform_cube, uniform_signs
from depthlab.experiments import ExperimentConfig, run
from depthlab.kernel import (
    FeatureMap,
    depth2_radius,
    depth2_to_kernel,
    hardness_bound,
    hardness_bound_variants,
    min_hinge_family,
    verify_linear_hardness,
)
from depthlab.boolfn import enumerate_signs
from depthlab.mlp import Mlp, forward_many
from conftest import report_bytes_by_blas_threads


def rows_map(rows):
    """The feature map whose features are the explicit table rows ``rows``."""
    return FeatureMap(np.ascontiguousarray(rows.T, dtype=np.float64))


def iid_map(n, count, seed):
    """``count`` seeded uniform sign tables on {+-1}^n, as kernel-hardness draws them."""
    rng = np.random.default_rng(seed)
    return rows_map(rng.integers(0, 2, size=(count, 2**n)) * 2.0 - 1.0)


def grid_search_min(Phi, y, weights, B, resolution=0.05):
    """Brute-force hinge minimum over the B-ball, N <= 3."""
    N = Phi.shape[1]
    axis = np.arange(-B, B + 1e-9, resolution)
    grids = np.meshgrid(*[axis] * N, indexing="ij")
    W = np.stack([g.ravel() for g in grids], axis=0)
    W = W[:, np.sum(W**2, axis=0) <= B**2 + 1e-12]
    losses = weights @ np.maximum(0.0, 1.0 - y[:, None] * (Phi @ W))
    return float(losses.min())


@pytest.fixture(scope="module")
def parity6():
    return parity_family(6), uniform_signs(6)


def solve_one(psi, B, target, dist, iters=2000):
    """min_hinge_family on the one-row family of the table row ``target``: (w, loss)."""
    W, losses, _ = min_hinge_family(psi, B, target[None], dist, iters)
    return W[:, 0], float(losses[0])


class TestMinHinge:
    def test_zero_ball_loses_exactly_one(self, parity6):
        family, dist = parity6
        psi = rows_map(family[:4])
        w, loss = solve_one(psi, 0.0, family[1], dist)
        assert loss == 1.0
        assert np.all(w == 0.0)

    def test_realizable_direction(self, parity6):
        family, dist = parity6
        target = family[9]
        psi = rows_map(family[[9, 3, 5]])
        w, loss = solve_one(psi, 1.0, target, dist, iters=10**4)
        assert loss <= 1e-3
        assert np.linalg.norm(w) <= 1.0 + 1e-9

    def test_doubling_b_never_hurts(self, parity6):
        family, dist = parity6
        target = family[21]
        psi = iid_map(6, 4, seed=8)
        _, l1 = solve_one(psi, 1.0, target, dist, iters=5000)
        _, l2 = solve_one(psi, 2.0, target, dist, iters=5000)
        assert l2 <= l1 + 2e-3

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_grid_search(self, N, parity6):
        family, dist = parity6
        target = family[13]
        psi = iid_map(6, N, seed=100 + N)
        B = 1.5
        w, loss = solve_one(psi, B, target, dist, iters=2 * 10**4)
        oracle = grid_search_min(psi(dist), target.astype(np.float64),
                                 np.full(dist.n_points, 1.0 / dist.n_points), B)
        assert abs(loss - oracle) <= 2e-2
        assert loss >= oracle - 1e-9  # the solver is a feasible point
        assert np.linalg.norm(w) <= B + 1e-9

    def test_bad_radius_or_iteration_count_refused(self, parity6):
        family, dist = parity6
        psi = rows_map(family[:4])
        with pytest.raises(ValueError):
            min_hinge_family(psi, -1.0, family[:2], dist)
        with pytest.raises(ValueError):
            min_hinge_family(psi, 1.0, family[:2], dist, iters=0)

    def test_cross_validated_against_convex_solver(self, parity6):
        # the stated 8-feature instance is far beyond grid search, so an
        # interior-point SOCP stands in as the independent oracle
        cvxpy = pytest.importorskip("cvxpy")
        family, dist = parity6
        target = family[13]
        psi = iid_map(6, 8, seed=4)
        B = 5.0
        _, loss = solve_one(psi, B, target, dist, iters=4 * 10**4)
        Phi = psi(dist)
        y = target.astype(np.float64)
        w = cvxpy.Variable(8)
        weights = np.full(dist.n_points, 1.0 / dist.n_points)
        obj = cvxpy.Minimize(weights @ cvxpy.pos(1 - cvxpy.multiply(y, Phi @ w)))
        cvxpy.Problem(obj, [cvxpy.norm(w, 2) <= B]).solve()
        assert abs(loss - obj.value) <= 2e-2


class TestFeatureMaps:
    def test_singleton_family(self, parity6):
        family, dist = parity6
        psi = rows_map(family[[7]])
        vals = psi(dist)
        assert vals.shape == (64, 1)
        assert np.array_equal(vals[:, 0], family[7])

    @pytest.mark.parametrize("table", [
        np.full((4, 2), 1.5), np.full((4, 2), np.nan), np.ones(4), np.ones((4, 0)),
    ], ids=["value-outside", "nan", "one-dimensional", "empty"])
    def test_bad_table_refused_at_construction(self, table):
        with pytest.raises(ValueError):
            FeatureMap(table)

    def test_table_is_read_only_and_c_contiguous(self, parity6):
        family, dist = parity6
        psi = rows_map(family[[3, 5]])
        assert psi.n_features == 2 and psi(dist).flags.c_contiguous
        with pytest.raises(ValueError):
            psi(dist)[0, 0] = 0.0

    def test_other_support_refused_at_read(self, parity6):
        family, _ = parity6
        psi = rows_map(family[:4])
        for support in (uniform_signs(5), uniform_cube(64)):
            with pytest.raises(ValueError, match="feature rows"):
                psi(support)
        # targets that do line up with the smaller cube meet the table's refusal
        with pytest.raises(ValueError, match="feature rows"):
            min_hinge_family(psi, 1.0, parity_family(5)[:2], uniform_signs(5), iters=1)

    def test_weak_approximation_from_correlation(self, parity6):
        # loss <= 1 - max_i |<f_i, target>| + tol for random sign targets
        family, dist = parity6
        feats = family[:16]
        psi = rows_map(feats)
        F = feats.astype(np.float64)
        weights = np.full(dist.n_points, 1.0 / dist.n_points)
        rng = np.random.default_rng(3)
        for _ in range(10):
            table = (rng.integers(0, 2, size=64) * 2 - 1).astype(np.int8)
            corr = np.abs(F @ (weights * table.astype(np.float64)))
            _, loss = solve_one(psi, 1.0, table, dist, iters=10**4)
            assert loss <= 1.0 - corr.max() + 1e-2


class TestHardnessBound:
    def test_zero_predictor(self):
        assert hardness_bound(10, 0.0, 100) == 1.0

    def test_paper_scale_value(self):
        # N=1, B=1, d=2^72: 1 - sqrt(2 sqrt 5)/2^6
        got = hardness_bound(1, 1.0, 2**72)
        assert got == pytest.approx(1.0 - np.sqrt(2 * np.sqrt(5.0)) / 64.0, abs=1e-12)
        assert got == pytest.approx(0.9669, abs=1e-4)

    def test_vacuous_clamp(self):
        assert hardness_bound(64, 10.0, 1) == 0.0

    def test_variants_recorded(self):
        v = hardness_bound_variants(4, 0.001, 2**60)
        assert set(v) == {"proof_end_sqrt_2sqrt5N_d112", "statement_sqrt_5N_d112",
                          "corollary_sqrt_5N_d15"}
        assert all(0.0 <= x <= 1.0 for x in v.values())


class TestVerifyLinearHardness:
    def test_realizable_family_has_tiny_average(self, parity6):
        # features = the family itself: every target is a unit direction
        family, dist = parity6
        fam8 = family[:8]
        psi = rows_map(fam8)
        rep = verify_linear_hardness(psi, 1.0, fam8, dist, iters=4000)
        assert rep.average_loss <= 1e-3
        assert rep.bound_vacuous

    def test_grad_identity_and_report_shape(self, parity6):
        family, dist = parity6
        psi = iid_map(6, 8, seed=0)
        rep = verify_linear_hardness(psi, 2.0, family[:32], dist, iters=500)
        assert rep.grad_identity_max_err <= 1e-9
        assert rep.losses.shape == (32,)


def random_depth2_pair_net(rng, k, n, scale=0.3):
    W1 = rng.normal(0.0, scale, size=(k, 2 * n))
    b1 = rng.normal(0.0, scale, size=k)
    W2 = rng.normal(0.0, scale, size=(1, k))
    return Mlp([(W1, b1), (W2, np.zeros(1))])


def loop_coefficients(net, delta, R, n):
    """Reference: u(z) for each z of the enumeration, one hidden unit at a
    time, as the reduction's selector closure built it."""
    (W1, _), (W2, _) = net.layers
    v_int = np.floor(W1[:, n:] / delta).astype(np.int64)
    M = max(int(np.floor(R * np.sqrt(n) / delta)), int(np.max(np.abs(v_int).sum(axis=1))))
    n_j = 2 * M + 1
    out = np.zeros((2**n, len(W1) * n_j))
    for zi, z in enumerate(enumerate_signs(n).astype(np.float64)):
        j_int = np.rint(v_int @ z).astype(np.int64)
        for i in range(len(W1)):
            out[zi, i * n_j + int(j_int[i]) + M] = 3.0 * R * np.sqrt(n) * W2[0, i]
    return out


class TestDepth2Reduction:
    def test_grid_weights_reproduce_exactly(self, rng):
        n, k, delta = 5, 3, 0.25
        net = random_depth2_pair_net(rng, k, n)
        W1, b1 = net.layers[0]
        W1q = W1.copy()
        W1q[:, n:] = delta * np.floor(W1[:, n:] / delta)
        netq = Mlp([(W1q, b1), net.layers[1]])
        R = 1.0 + max(np.linalg.norm(W1q[i]) for i in range(k))
        red = depth2_to_kernel(netq, delta, R, n)
        for (Wa, ba), (Wb, bb) in zip(netq.layers, red.rounded_net.layers):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
        U = enumerate_signs(2 * n).astype(np.float64)
        assert np.array_equal(forward_many(netq, U), forward_many(red.rounded_net, U))

    def test_identity_and_rounding_bound(self, rng):
        n, k, delta = 6, 4, 0.25
        net = random_depth2_pair_net(rng, k, n)
        W1, b1 = net.layers[0]
        W2 = net.layers[1][0]
        R = max([np.linalg.norm(W2), np.linalg.norm(b1)]
                + [np.linalg.norm(W1[i, :n]) for i in range(k)]
                + [np.linalg.norm(W1[i, n:]) for i in range(k)])
        assert depth2_radius(net, n) == R
        red = depth2_to_kernel(net, delta, R, n)
        U = enumerate_signs(2 * n).astype(np.float64)
        g = forward_many(net, U)
        ghat = forward_many(red.rounded_net, U)
        assert np.max(np.abs(g - ghat)) <= red.rounding_bound
        Psi = red.feature_map(uniform_signs(n))
        n_x = 2**n
        assert red.coefficients.tobytes() == loop_coefficients(net, delta, R, n).tobytes()
        # ghat at (x, z) is entry x 2^n + z; row z of the table is u(z)
        assert np.max(np.abs(Psi @ red.coefficients.T - ghat.reshape(n_x, n_x))) <= 1e-9
        assert np.all(np.linalg.norm(red.coefficients, axis=1)
                      <= red.coefficient_bound + 1e-12)
        assert red.coefficient_bound <= 3 * R**2 * np.sqrt(n) + 1e-12

    def test_norm_precondition(self, rng):
        net = random_depth2_pair_net(rng, 3, 4, scale=1.0)
        with pytest.raises(ValueError):
            depth2_to_kernel(net, 0.25, R=1e-3, n=4)

    def test_output_bias_must_vanish(self, rng):
        net = random_depth2_pair_net(rng, 3, 4)
        biased = Mlp([net.layers[0], (net.layers[1][0], np.array([0.5]))])
        with pytest.raises(ValueError):
            depth2_to_kernel(biased, 0.25, R=10.0, n=4)


def test_min_hinge_family_matches_single_solves(parity6):
    family, dist = parity6
    psi = rows_map(family[:6])
    targets = family[:4]
    W, batched, _ = min_hinge_family(psi, 1.5, targets, dist, iters=3000)
    singles = [solve_one(psi, 1.5, t, dist, iters=3000) for t in targets]
    assert W.shape == (6, 4)
    assert np.allclose(batched, [loss for _, loss in singles], atol=1e-12)
    assert np.allclose(W, np.stack([w for w, _ in singles], axis=1), atol=1e-12)
    assert np.all(np.linalg.norm(W, axis=0) <= 1.5 + 1e-9)


def dense_min_hinge_family(psi, B, family, dist, iters):
    """Reference: the projected subgradient loop over every column, frozen or not."""
    Y = np.ascontiguousarray(family[:].T, dtype=np.float64)
    m, d = Y.shape
    N = psi.n_features
    weights = np.full(dist.n_points, 1.0 / dist.n_points)
    Phi = psi(dist)
    wY = weights[:, None] * Y
    W = np.zeros((N, d))
    Wsum = np.zeros((N, d))
    base = B / np.sqrt(N)
    buf = np.empty((m, d))
    active = np.empty((m, d), dtype=bool)
    for t in range(1, iters + 1):
        np.matmul(Phi, W, out=buf)
        buf *= Y
        np.less_equal(buf, 1.0, out=active)
        np.multiply(wY, active, out=buf)
        G = -(Phi.T @ buf)
        eta = base / np.sqrt(t)
        W -= eta * G
        norms = np.linalg.norm(W, axis=0)
        scale = np.minimum(1.0, B / np.maximum(norms, 1e-300))
        W *= scale
        Wsum += W
    Wavg = Wsum / iters
    return Wavg, np.einsum("m,md->d", weights, np.maximum(0.0, 1.0 - Y * (Phi @ Wavg)))


def _mixed_family(family):
    rng = np.random.default_rng(11)
    noise = (rng.integers(0, 2, size=(16, family.shape[1])) * 2 - 1).astype(np.int8)
    return np.concatenate([family[:24], noise, family[40:]])


@pytest.mark.parametrize("features,targets", [
    (lambda fam: rows_map(fam[[3, 17, 42, 60]]), lambda fam: fam),
    (lambda fam: iid_map(6, 8, seed=21), lambda fam: fam),
    (lambda fam: rows_map(fam[[1, 2, 5, 9, 33]]), _mixed_family),
    (lambda fam: rows_map(fam[:4]), lambda fam: fam[4:8]),
    (lambda fam: rows_map(fam[[3, *range(32, 47)]]), lambda fam: fam[:32]),
], ids=["parity-features", "iid-features", "mixed-targets", "all-frozen", "one-live"])
def test_fixed_point_skip_matches_dense_loop(parity6, features, targets):
    family, dist = parity6
    psi, fam = features(family), targets(family)
    W, losses, C = min_hinge_family(psi, 2.0, fam, dist, iters=300)
    Wd, losses_d = dense_min_hinge_family(psi, 2.0, fam, dist, iters=300)
    assert W.tobytes() == Wd.tobytes() and losses.tobytes() == losses_d.tobytes()
    Y = fam[:].T.astype(np.float64)
    weights = np.full(dist.n_points, 1.0 / dist.n_points)
    assert np.array_equal(C, psi(dist).T @ (weights[:, None] * Y))
    frozen = ~np.any(C != 0.0, axis=0)
    assert np.all(W[:, frozen] == 0.0)
    assert np.all(losses[frozen] == np.sum(weights))


def test_lower_bounds_bracket_the_minima(parity6):
    family, dist = parity6
    psi = rows_map(family[[3, 17, 42, 60]])
    rep = verify_linear_hardness(psi, 10.0, family, dist, iters=50)
    assert rep.fixed_point_targets == 60
    assert np.all(rep.lower_bounds <= rep.losses + 1e-12)
    assert rep.max_bracket_gap == 0.0 and rep.average_lower_bound == 60 / 64
    iid = verify_linear_hardness(iid_map(6, 8, seed=21), 1.0, family, dist,
                                 iters=300)
    assert iid.fixed_point_targets == 0
    assert np.all(iid.lower_bounds <= iid.losses + 1e-12) and iid.max_bracket_gap > 0.0
    # Parseval over the full parity family is exact on +-1 features
    assert rep.parseval_rel_err == iid.parseval_rel_err == 0.0


def test_wrong_family_product_fails_the_run(tmp_path, monkeypatch):
    """A fast Walsh-Hadamard transform that drops its bit reversal gives a
    wrong C, which the first subgradient over the labels contradicts: the
    default kernel-hardness run errors instead of passing."""
    monkeypatch.setattr(boolfn, "_bit_reversal", lambda n: np.arange(2**n))
    report = run(ExperimentConfig("kernel-hardness"), outdir=tmp_path)
    assert not report.passed
    assert report.error.startswith("RuntimeError: the family product disagrees")


def test_zero_family_product_fails_the_run(tmp_path, monkeypatch):
    """A family product that returns zeros freezes every target, so the
    first-subgradient check compares no column and every alpha = 1 lower
    bound is sum(p) = 1; Parseval, ||C||_F^2 = 0 against N, turns the
    default kernel-hardness run's pass flag false."""
    monkeypatch.setattr(boolfn.ParityFamily, "product", lambda self, V: np.zeros(np.shape(V)))
    report = run(ExperimentConfig("kernel-hardness"), outdir=tmp_path)
    assert not report.error
    (parseval,) = [c for c in report.checks if c["name"] == "parseval_rel_err"]
    assert report.metrics["parseval_rel_err"] == 1.0 > parseval["bound"]
    assert not report.passed and report.first_failed == "parseval_rel_err"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for 2 BLAS threads")
@pytest.mark.parametrize("experiment,params", [
    ("kernel-hardness", {"iters": 50}),
    ("kernel-hardness", {"feature_kind": "iid", "iters": 30}),
    ("f-family", {}),
], ids=["parity-features", "iid-features", "depth2-features"])
def test_kernel_report_bytes_do_not_depend_on_blas_threads(tmp_path, experiment, params):
    """Every feature producer's run (kernel-hardness at n = 10, products of
    1,024 rows, and f-family's depth-2 reduction) writes the same bytes
    whether BLAS runs on one thread or two."""
    outputs = report_bytes_by_blas_threads(tmp_path, experiment, params)
    assert outputs[0] == outputs[1]
